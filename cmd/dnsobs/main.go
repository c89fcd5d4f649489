// Command dnsobs runs the DNS Observatory pipeline over an SIE stream
// (from dnsgen or any compatible producer): it tracks the standard Top-k
// aggregations, writes minutely TSV snapshots into a store directory,
// runs the time-aggregation cascade and applies the retention policy.
// The stream comes from a file, stdin, or — with -listen — a fleet of
// remote sensors speaking the transport frame protocol.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"dnsobservatory/internal/cli"
	"dnsobservatory/internal/detect"
	"dnsobservatory/internal/encwire"
	"dnsobservatory/internal/fleet"
	"dnsobservatory/internal/metrics"
	"dnsobservatory/internal/observatory"
	"dnsobservatory/internal/sie"
	"dnsobservatory/internal/spine"
	"dnsobservatory/internal/transport"
	"dnsobservatory/internal/tsv"
	"dnsobservatory/internal/wal"
	"dnsobservatory/internal/webui"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	// The first signal cancels ctx and run drains; stop puts the default
	// handlers back, so a second signal kills the process.
	context.AfterFunc(ctx, stop)
	os.Exit(cli.Exit("dnsobs", run(ctx, os.Args[1:], os.Stdin, os.Stderr)))
}

// run is main minus the process: flags, a source and the spine (DESIGN.md
// "One spine"), fed until the input ends or ctx is cancelled. Every
// failure comes back as an error, so deferred closes run.
func run(ctx context.Context, args []string, stdin io.Reader, stderr io.Writer) error {
	fs := flag.NewFlagSet("dnsobs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in       = fs.String("i", "-", "input stream file ('-' for stdin)")
		listen   = fs.String("listen", "", "accept sensor connections on this address (host:port, tcp:host:port or unix:/path) instead of reading a stream")
		dir      = fs.String("dir", "observatory-data", "snapshot store directory")
		backend  = fs.String("store", tsv.BackendTSV, "snapshot store backend: tsv (plain text) or columnar (compressed, indexed)")
		factor   = fs.Float64("k", 0.1, "top-k capacity factor (1.0 = paper scale)")
		retain   = fs.Int("retain-min", 0, "minutely files to retain (0 = all)")
		httpAddr = fs.String("http", "", "serve the live web UI on this address (e.g. :8053)")
		detectOn = fs.Bool("detect", false, "enable the streaming detection layer (information-content heavy hitters + newly-observed domains; snapshots under detect_esld/detect_nod, live view at /api/detect)")
		sharded  = fs.Bool("sharded", false, "use the key-hash-sharded engine (implied by -shards/-workers)")
		shards   = fs.Int("shards", 0, "sharded engine: key-hash shards per aggregation (0 = one per worker)")
		workers  = fs.Int("workers", 0, "sharded engine: worker goroutines (0 = GOMAXPROCS, capped at 16)")
		pprofOn  = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the web UI (requires -http)")
		report   = fs.Duration("report", 60*time.Second, "self-report interval for the health log line (0 disables)")
		walDir   = fs.String("wal", "", "with -listen: journal accepted frames to a write-ahead log in this directory and feed the engine from it (durable ingest: a full queue neither stalls sensors nor sheds, and a restart replays what was not stored)")
		overload = fs.String("overload", "block", "with -listen: full-queue policy, block (backpressure) or shed (drop with accounting); with -wal the backlog waits in the journal instead")
		fleetN   = fs.String("fleet", "", "this collector's fleet member name (with -peers)")
		peers    = fs.String("peers", "", "fleet membership as name=addr,name=addr,... including this member (with -fleet)")
		absorb   = fs.String("absorb", "", "comma-separated WAL directories of dead fleet peers to absorb before serving (frames past their last checkpoint re-enter ingest; with -fleet, filtered to sensors this member now owns)")
		encIn    = fs.String("enc-in", "", "encrypted client-leg observation file (from dnsgen -enc-out): accounted into per-mode counters served as dnsobs_encwire_* metrics and /api/encdns")
	)
	if err := fs.Parse(args); err != nil {
		return cli.Usage(err)
	}

	// Every flag is checked before anything is created under -dir.
	for _, f := range [][2]string{{"-wal", *walDir}, {"-fleet", *fleetN}, {"-peers", *peers}, {"-absorb", *absorb}} {
		if *listen == "" && f[1] != "" {
			return errors.New(f[0] + " requires -listen")
		}
	}
	switch {
	case *pprofOn && *httpAddr == "":
		return errors.New("-pprof requires -http")
	case *listen != "" && *in != "-":
		return errors.New("-listen and -i are mutually exclusive")
	case (*fleetN == "") != (*peers == ""):
		return errors.New("-fleet and -peers go together")
	case *absorb != "" && *walDir == "":
		// The absorbed backlog waits in our own journal until the engine
		// reads it; without one it would have to fit the queue before the
		// engine starts, or deadlock.
		return errors.New("-absorb requires -wal")
	case *overload != "block" && *overload != "shed":
		return fmt.Errorf("unknown -overload policy %q (block or shed)", *overload)
	case *shards < 0 || *workers < 0:
		return errors.New("-shards and -workers must not be negative")
	case *retain < 0:
		return errors.New("-retain-min must not be negative")
	}
	var members map[string]string
	if *peers != "" {
		var err error
		if members, err = fleet.ParseMembers(*peers); err != nil {
			return fmt.Errorf("-peers: %w", err)
		}
		if _, ok := members[*fleetN]; !ok {
			return fmt.Errorf("-fleet member %q is not in -peers", *fleetN)
		}
	}

	input, err := cli.Open(*in, stdin)
	if err != nil {
		return err
	}
	defer input.Close()

	store, err := tsv.NewStoreBackend(*dir, *backend)
	if err != nil {
		return err
	}
	defer store.Close() // runs after the web UI's Close; a query still in flight reads on
	if *retain > 0 {
		store.Retain[tsv.Minutely] = *retain
	}

	// Every layer publishes into the process-wide registry: the engine,
	// the store, the platform counters (hll, sie) and the Go runtime.
	reg := metrics.Default()
	observatory.InstrumentPlatform(reg)
	metrics.InstrumentRuntime(reg)
	store.Instrument(reg)

	ui := webui.NewServer(store)
	ui.Registry = reg
	ui.EnablePprof = *pprofOn

	// The encrypted client-leg side channel: summary statistics, not
	// transactions, accumulated into per-mode counters that /metrics,
	// /healthz and /api/encdns serve beside the aggregations.
	if *encIn != "" {
		f, err := os.Open(*encIn)
		if err != nil {
			return err
		}
		defer f.Close()
		acc := encwire.NewAccumulator()
		acc.Instrument(reg)
		ui.Enc = acc.Status
		r := encwire.NewReader(bufio.NewReaderSize(f, 1<<20))
		var obs encwire.Observation
		var encErrs uint64
		for {
			err := r.Read(&obs)
			if err == io.EOF {
				break
			}
			var de *encwire.DecodeError
			if errors.As(err, &de) {
				encErrs++
				acc.RecordDecodeError()
				continue
			}
			if err != nil {
				return fmt.Errorf("enc-in: %w", err)
			}
			acc.Add(&obs)
		}
		fmt.Fprintf(stderr, "dnsobs: enc-in: %d observations (%d undecodable) from %s\n",
			r.Count(), encErrs, *encIn)
	}

	// With -wal the collector is the spine's journal, so it is made
	// first; it starts no goroutine before the spine is open.
	var sp *spine.Spine
	var coll *transport.Collector
	var journal spine.Journal
	if *listen != "" {
		shedPolicy := transport.Block
		if *overload == "shed" {
			shedPolicy = transport.Shed
		}
		coll = transport.NewCollector(transport.CollectorConfig{
			Metrics:  reg,
			Overload: shedPolicy,
			// A frame that is not a transaction counts like an
			// unparsable stream record; any goroutine may count one.
			OnReject: func(error) { sp.Engine().RecordRejected() },
		})
		// Both idempotent: the collector stops, then its journal closes.
		defer func() {
			coll.Close()
			if err := coll.CloseWAL(); err != nil {
				fmt.Fprintln(stderr, "dnsobs: wal close:", err)
			}
		}()
		if *walDir != "" {
			journal = walJournal{coll, stderr}
		}
	}

	engineCfg := observatory.DefaultConfig()
	engineCfg.Metrics = reg
	if *detectOn {
		dc := detect.DefaultConfig()
		engineCfg.Detect = &dc
	}
	isSharded := *sharded || *shards > 0 || *workers > 0
	sp = spine.Open(spine.Config{
		Store:   store,
		Aggs:    observatory.StandardAggregations(*factor),
		Engine:  engineCfg,
		Sharded: isSharded,
		Shards:  *shards,
		Workers: *workers,
		Journal: journal,
	})
	// Every return stops the engine; the success path closes it below.
	defer sp.Abort()
	if isSharded {
		fmt.Fprintf(stderr, "dnsobs: sharded engine: %d shards, %d workers\n", sp.Engine().Shards(), sp.Engine().Workers())
	}

	// stop unblocks a read in progress: it closes the input, or the
	// collector, which drains its queue and then closes the channel.
	stop := func() { input.Close() }
	if coll != nil {
		ln, err := transport.Listen(*listen)
		if err != nil {
			return err
		}
		defer ln.Close()
		if *walDir != "" {
			if err := coll.OpenWAL(*walDir, wal.Options{}); err != nil {
				return err
			}
			if ws, ok := coll.WALStatus(); ok && ws.Recovered > 0 {
				fmt.Fprintf(stderr, "dnsobs: wal: replaying %d unconfirmed transactions from %s\n", ws.Recovered, *walDir)
			}
			ui.WAL = func() any { ws, _ := coll.WALStatus(); return ws }
		}

		// Fleet membership: the ring tells this member which sensors it
		// owns — both for /healthz and for filtering absorbed journals.
		// Nothing here dials, so no member is ever cooling down.
		var keep func(sensor string) bool
		if members != nil {
			rt := fleet.NewRouter(fleet.RouterConfig{})
			for name, addr := range members {
				rt.SetNode(name, addr)
			}
			ui.Fleet = func() any { return rt.Status() }
			keep = func(sensor string) bool {
				owner, _, ok := rt.Owner(sensor)
				return ok && owner == *fleetN
			}
			fmt.Fprintf(stderr, "dnsobs: fleet member %q of %d\n", *fleetN, len(members))
		}

		// Absorb dead peers' journals before accepting connections, so
		// their unconfirmed work re-enters ingest ahead of the displaced
		// sensors' retransmissions (which then dedup cleanly).
		for _, dir := range strings.Split(*absorb, ",") {
			if dir = strings.TrimSpace(dir); dir == "" {
				continue
			}
			peerLog, err := wal.Open(dir, wal.Options{})
			if err != nil {
				return fmt.Errorf("absorb %s: %w", dir, err)
			}
			absorbed, deduped, err := coll.AbsorbLog(peerLog, keep)
			closeErr := peerLog.Close()
			if err != nil {
				return fmt.Errorf("absorb %s: %w", dir, err)
			}
			if closeErr != nil {
				return closeErr
			}
			fmt.Fprintf(stderr, "dnsobs: absorbed %d transactions (%d duplicate) from %s\n", absorbed, deduped, dir)
		}

		go func() {
			if err := coll.Serve(ln); err != nil {
				fmt.Fprintln(stderr, "dnsobs: listen:", err)
			}
		}()
		ui.Sensors = func() any { return coll.Sensors() }
		stop = coll.Close
		fmt.Fprintf(stderr, "dnsobs: listening for sensors on %s\n", *listen)
	}

	// Once ctx is cancelled, drain what has been read and close the spine.
	var stopping atomic.Bool
	defer context.AfterFunc(ctx, func() {
		fmt.Fprintln(stderr, "dnsobs: draining (signal again to abort)")
		stopping.Store(true)
		stop()
	})()

	if *httpAddr != "" {
		srv, err := cli.Serve(*httpAddr, ui.Handler())
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "dnsobs: web UI on http://%s\n", *httpAddr)
	}

	// Periodic one-line self-report so headless runs log their own
	// health: wall-clock ingest rate, heap in use, and live top-k
	// occupancy summed over aggregations.
	if *report > 0 {
		tick := time.NewTicker(*report)
		defer tick.Stop()
		done := make(chan struct{})
		defer close(done)
		go func() {
			last := uint64(0)
			for {
				select {
				case <-done:
					return
				case <-tick.C:
				}
				cur := sp.Engine().Stats().Ingested
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				fmt.Fprintf(stderr, "dnsobs: report: %.0f tx/s, heap %d MiB, topk %.0f objects\n",
					float64(cur-last)/report.Seconds(),
					ms.HeapAlloc>>20,
					reg.Sum(observatory.MetricTopkOccupancy))
				last = cur
			}
		}()
	}

	// Each transaction is placed at its own time: a window is named by
	// its minute, whichever run or replay writes it.
	at := func(tx *sie.Transaction) float64 { return float64(tx.QueryTime.UnixNano()) / 1e9 }
	wall := time.Now()
	if coll != nil {
		for tx := range coll.C() {
			if err := sp.Ingest(tx, at(tx)); err != nil {
				return err
			}
		}
	} else {
		r := sie.NewReader(bufio.NewReaderSize(input, 1<<20))
		var tx sie.Transaction
		for {
			err := r.Read(&tx)
			var de *sie.DecodeError
			if errors.As(err, &de) {
				// A sound frame whose body is not a transaction: the
				// stream is still in sync.
				sp.Reject()
				continue
			}
			if err == io.EOF || err != nil && stopping.Load() {
				break // the end, or a read interrupted by stop
			}
			if err != nil {
				return err
			}
			if err := sp.Ingest(&tx, at(&tx)); err != nil {
				return err
			}
			if stopping.Load() {
				break
			}
		}
	}
	// A clean shutdown checkpoints everything read and replays nothing.
	if err := sp.Close(); err != nil {
		return err
	}
	n, refused := sp.Counts()
	es := sp.Engine().Stats()
	fmt.Fprintf(stderr, "dnsobs: %d transactions (%d unparsable) -> %s in %v\n",
		n, refused, *dir, time.Since(wall).Round(time.Millisecond))
	fmt.Fprintf(stderr, "dnsobs: engine: ingested %d accepted %d rejected %d panics %d quarantined %d; store: %d corrupt snapshots skipped\n",
		es.Ingested, es.Accepted, es.Rejected, es.Panics, es.Quarantined, store.CorruptSkipped())
	return nil
}

// walJournal is the -wal collector as the spine's journal. The spine
// stops checkpointing after a failure, so the failure is reported once.
type walJournal struct {
	*transport.Collector
	stderr io.Writer
}

func (j walJournal) Checkpoint(done uint64) error {
	err := j.Collector.Checkpoint(done)
	if err != nil {
		fmt.Fprintln(j.stderr, "dnsobs: wal checkpoint:", err)
	}
	return err
}
