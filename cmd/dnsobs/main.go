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
	"sync"
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
	"dnsobservatory/internal/transport"
	"dnsobservatory/internal/tsv"
	"dnsobservatory/internal/wal"
	"dnsobservatory/internal/webui"
)

// txSource abstracts where transactions come from: a framed stream file
// (sie.Reader) or a transport collector fed by remote sensors.
type txSource interface {
	Read(*sie.Transaction) error
	Count() uint64
}

// collectorSource adapts the collector's ingest channel to txSource,
// returning io.EOF once the collector is closed and its queue drained.
type collectorSource struct {
	c <-chan *sie.Transaction
	n uint64
}

func (s *collectorSource) Read(tx *sie.Transaction) error {
	rx, ok := <-s.c
	if !ok {
		return io.EOF
	}
	*tx = *rx
	s.n++
	return nil
}

func (s *collectorSource) Count() uint64 { return s.n }

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	// The first signal cancels ctx and run drains; stop puts the default
	// handlers back, so a second signal kills the process.
	context.AfterFunc(ctx, stop)
	os.Exit(cli.Exit("dnsobs", run(ctx, os.Args[1:], os.Stdin, os.Stderr)))
}

// run is main minus the process. It ingests until the input ends or ctx
// is cancelled, then drains what was read, flushes the final window,
// cascades, applies retention and — with -wal — checkpoints the
// journal. Every failure comes back as an error, so deferred closes run.
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
		walDir   = fs.String("wal", "", "with -listen: journal accepted frames to a write-ahead log in this directory (durable ingest: spill instead of shed, replay after a crash)")
		overload = fs.String("overload", "block", "with -listen: full-queue policy, block (backpressure) or shed (drop with accounting); a -wal collector spills instead")
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
		// Without a journal of our own the absorbed backlog has nowhere
		// to spill and could deadlock a full queue.
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
	if *retain > 0 {
		store.Retain[tsv.Minutely] = *retain
	}
	// A checkpoint trims the journal behind the snapshots that consumed
	// it, so under -wal those snapshots must be on stable storage first.
	store.FsyncOnPut = *walDir != ""

	// Every layer publishes into the process-wide registry: the engines
	// via Config.Metrics, the store, the dependency-free platform
	// counters (hll, sie) and the Go runtime via read-through
	// registration.
	reg := metrics.Default()
	observatory.InstrumentPlatform(reg)
	metrics.InstrumentRuntime(reg)
	store.Instrument(reg)

	aggs := observatory.StandardAggregations(*factor)
	var aggNames []string
	for _, a := range aggs {
		aggNames = append(aggNames, a.Name)
	}
	if *detectOn {
		// Detection snapshots persist and cascade like any aggregation.
		aggNames = append(aggNames, "detect_esld", "detect_nod")
	}

	ui := webui.NewServer(store)
	ui.Registry = reg
	ui.EnablePprof = *pprofOn

	// The encrypted client-leg side channel: observations are summary
	// statistics, not transactions — they accumulate into per-mode
	// counters (wire bytes, messages, handshakes, decode errors) exposed
	// through /metrics, /healthz and /api/encdns, next to the SIE-derived
	// aggregations of the same traffic.
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

	// journal, with -wal, is the collector whose journal settled windows
	// let go of; a failed checkpoint is reported once and ends them.
	var journal *transport.Collector

	// settle runs when the first snapshot of a window arrives — the
	// engines deliver windows in order, so every earlier window is
	// stored (and, under -wal, fsynced) then — and once more after the
	// final flush. It checkpoints the journal through the first done
	// transactions, the ones those windows hold, cascades every window
	// that closed by now and applies retention.
	settle := func(now int64, done uint64) error {
		if journal != nil {
			if err := journal.Checkpoint(done); err != nil {
				fmt.Fprintln(stderr, "dnsobs: wal checkpoint:", err)
				journal = nil
			}
		}
		if err := store.CascadeAll(aggNames, now); err != nil {
			return err
		}
		for _, name := range aggNames {
			if err := store.Retention(name); err != nil {
				return err
			}
		}
		return nil
	}

	// The worker shape calls onSnapshot from its merger goroutine, so
	// store state is mutex-guarded.
	var mu sync.Mutex
	var snapErr error
	var lastStart int64 = -1
	var eng *observatory.Engine
	onSnapshot := func(s *tsv.Snapshot) {
		ui.OnSnapshot(s)
		mu.Lock()
		defer mu.Unlock()
		if snapErr != nil {
			return
		}
		if s.Start > lastStart {
			if snapErr = settle(s.Start, eng.FirstOfWindow()); snapErr != nil {
				return
			}
		}
		if snapErr = store.Put(s); snapErr != nil {
			return
		}
		lastStart = s.Start
	}
	failed := func() error {
		mu.Lock()
		defer mu.Unlock()
		return snapErr
	}

	engineCfg := observatory.DefaultConfig()
	engineCfg.Metrics = reg
	if *detectOn {
		dc := detect.DefaultConfig()
		engineCfg.Detect = &dc
	}
	if *sharded || *shards > 0 || *workers > 0 {
		eng = observatory.NewSharded(observatory.ShardedConfig{
			Config:  engineCfg,
			Shards:  *shards,
			Workers: *workers,
		}, aggs, onSnapshot)
		fmt.Fprintf(stderr, "dnsobs: sharded engine: %d shards, %d workers\n",
			eng.Shards(), eng.Workers())
	} else {
		eng = observatory.New(engineCfg, aggs, onSnapshot)
	}

	// The transaction source. stop unblocks a Read in progress: closing
	// the input for the stream path, closing the collector (which drains
	// its queue, then closes the channel) for the listen path.
	var src txSource
	var stop func()
	if *listen != "" {
		ln, err := transport.Listen(*listen)
		if err != nil {
			return err
		}
		defer ln.Close()
		shedPolicy := transport.Block
		if *overload == "shed" {
			shedPolicy = transport.Shed
		}
		coll := transport.NewCollector(transport.CollectorConfig{
			Metrics:  reg,
			Overload: shedPolicy,
			// A frame that is not a transaction is accounted exactly
			// like an unparsable record from a stream file; the engine
			// counters are atomic, so collector goroutines may call
			// this concurrently with the ingest loop.
			OnReject: func(error) { eng.RecordRejected() },
		})
		// Both are idempotent: the collector stops (if an early return
		// left it running), then its journal closes.
		defer func() {
			coll.Close()
			if err := coll.CloseWAL(); err != nil {
				fmt.Fprintln(stderr, "dnsobs: wal close:", err)
			}
		}()
		if *walDir != "" {
			if err := coll.OpenWAL(*walDir, wal.Options{}); err != nil {
				return err
			}
			if ws, ok := coll.WALStatus(); ok && ws.Recovered > 0 {
				fmt.Fprintf(stderr, "dnsobs: wal: replaying %d unconfirmed transactions from %s\n", ws.Recovered, *walDir)
			}
			ui.WAL = func() any { ws, _ := coll.WALStatus(); return ws }
			journal = coll
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
		src = &collectorSource{c: coll.C()}
		stop = coll.Close
		fmt.Fprintf(stderr, "dnsobs: listening for sensors on %s\n", *listen)
	} else {
		src = sie.NewReader(bufio.NewReaderSize(input, 1<<20))
		stop = func() { input.Close() }
	}

	// Once ctx is cancelled, drain what has been read, flush the final
	// partial window and return nil; stop unblocks a read in progress.
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
				cur := eng.Stats().Ingested
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

	var summarizer sie.Summarizer
	summarizer.KeepUnparsableResponses = true
	var tx sie.Transaction
	var errs uint64
	wall := time.Now()
	for {
		err := src.Read(&tx)
		if err == io.EOF {
			break
		}
		if err != nil {
			var de *sie.DecodeError
			if errors.As(err, &de) {
				// The frame was sound but its body was not a transaction;
				// the stream is still in sync. (The listen path accounts
				// these collector-side, via OnReject.)
				errs++
				eng.RecordRejected()
				continue
			}
			if stopping.Load() {
				break // interrupted mid-read by stop
			}
			return err
		}
		// Summarized straight into a pooled buffer: no copy on either shape.
		buf := eng.Borrow()
		if tx.QueryTime.IsZero() || summarizer.Summarize(&tx, &buf.Summary) != nil {
			// Rejected: no timestamp, or packets the summarizer cannot
			// parse. (A late one is not: the engine clamps it into the
			// open window.)
			errs++
			eng.Discard(buf)
			eng.RecordRejected()
			continue
		}
		// Numbered by its index in the input, which is what the journal
		// counts, and placed at its own time: a window is named by its
		// minute, whichever run or replay writes it.
		buf.Summary.Seq = src.Count() - 1
		eng.IngestShared(buf, float64(tx.QueryTime.UnixNano())/1e9)
		if err := failed(); err != nil {
			return err
		}
		if stopping.Load() && *listen == "" {
			break
		}
	}
	eng.Close()
	if err := failed(); err != nil {
		return err
	}
	// The final checkpoint: a clean shutdown replays nothing.
	if err := settle(lastStart+60, src.Count()); err != nil {
		return err
	}
	es := eng.Stats()
	fmt.Fprintf(stderr, "dnsobs: %d transactions (%d unparsable) -> %s in %v\n",
		src.Count(), errs, *dir, time.Since(wall).Round(time.Millisecond))
	fmt.Fprintf(stderr, "dnsobs: engine: ingested %d accepted %d rejected %d panics %d quarantined %d; store: %d corrupt snapshots skipped\n",
		es.Ingested, es.Accepted, es.Rejected, es.Panics, es.Quarantined, store.CorruptSkipped())
	return nil
}
