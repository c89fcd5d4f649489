// Command dnsobs runs the DNS Observatory pipeline over an SIE stream
// (from dnsgen or any compatible producer): it tracks the standard Top-k
// aggregations, writes minutely TSV snapshots into a store directory,
// runs the time-aggregation cascade and applies the retention policy.
// The stream comes from a file, stdin, or — with -listen — a fleet of
// remote sensors speaking the transport frame protocol.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

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
	var (
		in       = flag.String("i", "-", "input stream file ('-' for stdin)")
		listen   = flag.String("listen", "", "accept sensor connections on this address (host:port, tcp:host:port or unix:/path) instead of reading a stream")
		dir      = flag.String("dir", "observatory-data", "snapshot store directory")
		backend  = flag.String("store", tsv.BackendTSV, "snapshot store backend: tsv (plain text) or columnar (compressed, indexed)")
		factor   = flag.Float64("k", 0.1, "top-k capacity factor (1.0 = paper scale)")
		retain   = flag.Int("retain-min", 0, "minutely files to retain (0 = all)")
		httpAddr = flag.String("http", "", "serve the live web UI on this address (e.g. :8053)")
		detectOn = flag.Bool("detect", false, "enable the streaming detection layer (information-content heavy hitters + newly-observed domains; snapshots under detect_esld/detect_nod, live view at /api/detect)")
		sharded  = flag.Bool("sharded", false, "use the key-hash-sharded engine (implied by -shards/-workers)")
		shards   = flag.Int("shards", 0, "sharded engine: key-hash shards per aggregation (0 = one per worker)")
		workers  = flag.Int("workers", 0, "sharded engine: worker goroutines (0 = GOMAXPROCS, capped at 16)")
		pprofOn  = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the web UI (requires -http)")
		report   = flag.Duration("report", 60*time.Second, "self-report interval for the health log line (0 disables)")
		walDir   = flag.String("wal", "", "with -listen: journal accepted frames to a write-ahead log in this directory (durable ingest: spill instead of shed, replay after a crash)")
		overload = flag.String("overload", "block", "with -listen: full-queue policy, block (backpressure) or shed (drop with accounting); a -wal collector spills instead")
		fleetN   = flag.String("fleet", "", "this collector's fleet member name (with -peers)")
		peers    = flag.String("peers", "", "fleet membership as name=addr,name=addr,... including this member (with -fleet)")
		absorb   = flag.String("absorb", "", "comma-separated WAL directories of dead fleet peers to absorb before serving (frames past their last checkpoint re-enter ingest; with -fleet, filtered to sensors this member now owns)")
		encIn    = flag.String("enc-in", "", "encrypted client-leg observation file (from dnsgen -enc-out): accounted into per-mode counters served as dnsobs_encwire_* metrics and /api/encdns")
	)
	flag.Parse()
	if *pprofOn && *httpAddr == "" {
		fatal(errors.New("-pprof requires -http"))
	}
	if *listen != "" && *in != "-" {
		fatal(errors.New("-listen and -i are mutually exclusive"))
	}
	if *listen == "" {
		for name, v := range map[string]string{"-wal": *walDir, "-fleet": *fleetN, "-peers": *peers, "-absorb": *absorb} {
			if v != "" {
				fatal(errors.New(name + " requires -listen"))
			}
		}
	}
	if (*fleetN == "") != (*peers == "") {
		fatal(errors.New("-fleet and -peers go together"))
	}
	var shedPolicy transport.OverloadPolicy
	switch *overload {
	case "block":
		shedPolicy = transport.Block
	case "shed":
		shedPolicy = transport.Shed
	default:
		fatal(fmt.Errorf("unknown -overload policy %q (block or shed)", *overload))
	}

	inFile := os.Stdin
	if *listen == "" && *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		inFile = f
	}

	store, err := tsv.NewStoreBackend(*dir, *backend)
	if err != nil {
		fatal(err)
	}
	if *retain > 0 {
		store.Retain[tsv.Minutely] = *retain
	}

	// Every layer publishes into the process-wide registry: the engines
	// via Config.Metrics, the store and the dependency-free platform
	// counters (hll, sie) via read-through registration.
	reg := metrics.Default()
	observatory.InstrumentPlatform(reg)
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
			fatal(err)
		}
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
				fatal(fmt.Errorf("enc-in: %w", err))
			}
			acc.Add(&obs)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "dnsobs: enc-in: %d observations (%d undecodable) from %s\n",
			r.Count(), encErrs, *encIn)
	}

	// The sharded engine calls onSnapshot from its merger goroutine, so
	// store state is mutex-guarded. checkpoint, when set (serial engine
	// over a -wal collector), advances the journal's consumer checkpoint
	// after each snapshot lands.
	var mu sync.Mutex
	var snapErr error
	var lastStart int64 = -1
	var checkpoint func()
	onSnapshot := func(s *tsv.Snapshot) {
		ui.OnSnapshot(s)
		mu.Lock()
		defer mu.Unlock()
		if snapErr != nil {
			return
		}
		if err := store.Put(s); err != nil {
			snapErr = err
			return
		}
		lastStart = s.Start
		if checkpoint != nil {
			checkpoint()
		}
	}
	failed := func() error {
		mu.Lock()
		defer mu.Unlock()
		return snapErr
	}

	// borrow/ingest/discard/flush/reject/stats abstract over the two
	// engines. borrow returns the summary to fill; ingest commits it at a
	// stream time, discard drops it after a summarize failure, reject
	// additionally accounts it in the engine's ingest statistics.
	var (
		borrow  func() *sie.Summary
		ingest  func(now float64)
		discard func()
		flush   func()
		reject  func()
		stats   func() observatory.EngineStats
	)
	engineCfg := observatory.DefaultConfig()
	engineCfg.Metrics = reg
	if *detectOn {
		dc := detect.DefaultConfig()
		engineCfg.Detect = &dc
	}
	useSharded := *sharded || *shards > 0 || *workers > 0
	if useSharded {
		eng := observatory.NewSharded(observatory.ShardedConfig{
			Config:  engineCfg,
			Shards:  *shards,
			Workers: *workers,
		}, aggs, onSnapshot)
		// Zero-copy path: summarize straight into pooled buffers.
		var cur *sie.Shared
		borrow = func() *sie.Summary { cur = eng.Borrow(); return &cur.Summary }
		ingest = func(now float64) { eng.IngestShared(cur, now) }
		discard = func() { eng.Discard(cur) }
		flush = eng.Close
		reject = eng.RecordRejected
		stats = eng.Stats
		fmt.Fprintf(os.Stderr, "dnsobs: sharded engine: %d shards, %d workers\n",
			eng.Shards(), eng.Workers())
	} else {
		pipe := observatory.New(engineCfg, aggs, onSnapshot)
		var sum sie.Summary
		borrow = func() *sie.Summary { return &sum }
		ingest = func(now float64) { pipe.Ingest(&sum, now) }
		discard = func() {}
		flush = pipe.Flush
		reject = pipe.RecordRejected
		stats = pipe.Stats
	}

	// The transaction source. stop unblocks a Read in progress: closing
	// the input file for the stream path, closing the collector (which
	// drains its queue, then closes the channel) for the listen path.
	var src txSource
	var stop func()
	var finalize func()
	if *listen != "" {
		ln, err := transport.Listen(*listen)
		if err != nil {
			fatal(err)
		}
		coll := transport.NewCollector(transport.CollectorConfig{
			Metrics:  reg,
			Overload: shedPolicy,
			// A frame that is not a transaction is accounted exactly
			// like an unparsable record from a stream file; the engine
			// counters are atomic, so collector goroutines may call
			// this concurrently with the ingest loop.
			OnReject: func(error) { reject() },
		})
		if *walDir != "" {
			if err := coll.OpenWAL(*walDir, wal.Options{}); err != nil {
				fatal(err)
			}
			if ws, ok := coll.WALStatus(); ok && ws.Recovered > 0 {
				fmt.Fprintf(os.Stderr, "dnsobs: wal: replaying %d unconfirmed transactions from %s\n", ws.Recovered, *walDir)
			}
			ui.WAL = func() any { ws, _ := coll.WALStatus(); return ws }
		}

		// Fleet membership: the ring tells this member which sensors it
		// owns — both for /healthz and for filtering absorbed journals.
		var keep func(sensor string) bool
		if *fleetN != "" {
			rt := fleet.NewRouter(fleet.RouterConfig{})
			ring := fleet.NewRing(0)
			self := false
			for _, kv := range strings.Split(*peers, ",") {
				name, addr, ok := strings.Cut(strings.TrimSpace(kv), "=")
				if !ok || name == "" || addr == "" {
					fatal(fmt.Errorf("bad -peers entry %q (want name=addr)", kv))
				}
				rt.SetNode(name, addr)
				ring.Add(name)
				self = self || name == *fleetN
			}
			if !self {
				fatal(fmt.Errorf("-fleet member %q is not in -peers", *fleetN))
			}
			ui.Fleet = func() any { return rt.Status() }
			keep = func(sensor string) bool {
				owner, ok := ring.Owner(sensor)
				return ok && owner == *fleetN
			}
			fmt.Fprintf(os.Stderr, "dnsobs: fleet member %q of %d\n", *fleetN, len(ring.Nodes()))
		}

		// Absorb dead peers' journals before accepting connections, so
		// their unconfirmed work re-enters ingest ahead of the displaced
		// sensors' retransmissions (which then dedup cleanly).
		if *absorb != "" {
			if *walDir == "" {
				// Without a journal of our own the absorbed backlog has
				// nowhere to spill and could deadlock a full queue.
				fatal(errors.New("-absorb requires -wal"))
			}
			for _, dir := range strings.Split(*absorb, ",") {
				dir = strings.TrimSpace(dir)
				if dir == "" {
					continue
				}
				peerLog, err := wal.Open(dir, wal.Options{})
				if err != nil {
					fatal(fmt.Errorf("absorb %s: %w", dir, err))
				}
				absorbed, deduped, err := coll.AbsorbLog(peerLog, keep)
				closeErr := peerLog.Close()
				if err != nil {
					fatal(fmt.Errorf("absorb %s: %w", dir, err))
				}
				if closeErr != nil {
					fatal(closeErr)
				}
				fmt.Fprintf(os.Stderr, "dnsobs: absorbed %d transactions (%d duplicate) from %s\n", absorbed, deduped, dir)
			}
		}

		go func() {
			if err := coll.Serve(ln); err != nil {
				fmt.Fprintln(os.Stderr, "dnsobs: listen:", err)
			}
		}()
		ui.Sensors = func() any { return coll.Sensors() }
		csrc := &collectorSource{c: coll.C()}
		src = csrc
		stop = func() { coll.Close() }
		if *walDir != "" {
			if !useSharded {
				// Snapshot n lands when transaction n+1 opens the next
				// window, so everything before the current read is
				// durably applied. The sharded engine applies out of
				// order; it only checkpoints at shutdown.
				ckptBroken := false
				checkpoint = func() {
					if csrc.n == 0 || ckptBroken {
						return
					}
					if err := coll.Checkpoint(csrc.n - 1); err != nil {
						fmt.Fprintln(os.Stderr, "dnsobs: wal checkpoint:", err)
						ckptBroken = true
					}
				}
			}
			finalize = func() {
				if err := coll.Checkpoint(csrc.n); err != nil {
					fmt.Fprintln(os.Stderr, "dnsobs: wal checkpoint:", err)
				}
				if err := coll.CloseWAL(); err != nil {
					fmt.Fprintln(os.Stderr, "dnsobs: wal close:", err)
				}
			}
		}
		fmt.Fprintf(os.Stderr, "dnsobs: listening for sensors on %s\n", *listen)
	} else {
		src = sie.NewReader(bufio.NewReaderSize(io.Reader(inFile), 1<<20))
		stop = func() { inFile.Close() }
	}

	// On SIGINT/SIGTERM, drain what has been read, flush the final
	// partial window and exit 0. stop unblocks a read in progress; a
	// second signal aborts immediately.
	var stopping atomic.Bool
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		fmt.Fprintf(os.Stderr, "dnsobs: %v: draining (signal again to abort)\n", sig)
		stopping.Store(true)
		stop()
		<-sigc
		os.Exit(1)
	}()

	if *httpAddr != "" {
		go func() {
			if err := http.ListenAndServe(*httpAddr, ui.Handler()); err != nil {
				fmt.Fprintln(os.Stderr, "dnsobs: http:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "dnsobs: web UI on http://%s\n", *httpAddr)
	}

	// Periodic one-line self-report so headless runs log their own
	// health: wall-clock ingest rate, heap in use, and live top-k
	// occupancy summed over aggregations.
	if *report > 0 {
		go func() {
			tick := time.NewTicker(*report)
			defer tick.Stop()
			last := uint64(0)
			for range tick.C {
				cur := stats().Ingested
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				fmt.Fprintf(os.Stderr, "dnsobs: report: %.0f tx/s, heap %d MiB, topk %.0f objects\n",
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
	var base time.Time
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
				reject()
				continue
			}
			if stopping.Load() {
				break // interrupted mid-read by the signal handler
			}
			fatal(err)
		}
		if tx.QueryTime.IsZero() {
			// An unset timestamp cannot be placed in any window.
			errs++
			reject()
			continue
		}
		if !base.IsZero() && tx.QueryTime.Before(base) {
			// Backdated beyond the very first window; no window exists
			// to clamp it into.
			errs++
			reject()
			continue
		}
		sum := borrow()
		if err := summarizer.Summarize(&tx, sum); err != nil {
			errs++
			discard()
			reject()
			continue
		}
		if base.IsZero() {
			base = tx.QueryTime.Truncate(time.Minute)
		}
		ingest(tx.QueryTime.Sub(base).Seconds())
		if err := failed(); err != nil {
			fatal(err)
		}
		if stopping.Load() && *listen == "" {
			break
		}
	}
	flush()
	if err := failed(); err != nil {
		fatal(err)
	}
	if err := store.CascadeAll(aggNames, lastStart+60); err != nil {
		fatal(err)
	}
	for _, name := range aggNames {
		if err := store.Retention(name); err != nil {
			fatal(err)
		}
	}
	if finalize != nil {
		finalize() // final WAL checkpoint: a clean shutdown replays nothing
	}
	es := stats()
	fmt.Fprintf(os.Stderr, "dnsobs: %d transactions (%d unparsable) -> %s in %v\n",
		src.Count(), errs, *dir, time.Since(wall).Round(time.Millisecond))
	fmt.Fprintf(os.Stderr, "dnsobs: engine: ingested %d accepted %d rejected %d shed %d panics %d quarantined %d; store: %d corrupt snapshots skipped\n",
		es.Ingested, es.Accepted, es.Rejected, es.Shed, es.Panics, es.Quarantined, store.CorruptSkipped())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dnsobs:", err)
	os.Exit(1)
}
