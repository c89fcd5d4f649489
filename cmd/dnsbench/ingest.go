package main

import (
	"fmt"
	"sync"
	"time"

	"dnsobservatory/internal/detect"
	"dnsobservatory/internal/observatory"
	"dnsobservatory/internal/sie"
	"dnsobservatory/internal/tsv"
	"dnsobservatory/internal/webui"
)

// stageCap is the batch length of the traced, batch-staged loops: long
// enough that two clock reads per stage are far below 1 % of the work,
// short enough that a batch of packets stays cache-resident between the
// stages as it does between the calls of the untraced loop.
const stageCap = 4096

// engine is what cmd/dnsobs's borrow/ingest/discard/flush/reject/stats
// closures abstract over, with a slot index so the traced loop can
// summarize a whole batch before ingesting it. The untraced loop uses
// slot 0 only, which is exactly dnsobs's single reused summary.
type engine interface {
	slot(k int) *sie.Summary
	ingest(k int, now float64)
	discard(k int)
	flush()
	reject()
	stats() observatory.EngineStats
	// synchronous reports that snapshots are delivered on the ingesting
	// goroutine, inside the ingest or flush call that closes the window.
	synchronous() bool
}

type serialEngine struct {
	pipe  *observatory.Pipeline
	stage []sie.Summary
}

func newSerialEngine(cfg observatory.Config, aggs []observatory.Aggregation, onSnapshot func(*tsv.Snapshot)) *serialEngine {
	return &serialEngine{pipe: observatory.New(cfg, aggs, onSnapshot), stage: make([]sie.Summary, 1)}
}

func (e *serialEngine) slot(k int) *sie.Summary {
	if k >= len(e.stage) {
		e.stage = append(e.stage, make([]sie.Summary, stageCap-len(e.stage))...)
	}
	return &e.stage[k]
}
func (e *serialEngine) ingest(k int, now float64)      { e.pipe.Ingest(&e.stage[k], now) }
func (e *serialEngine) discard(int)                    {}
func (e *serialEngine) flush()                         { e.pipe.Flush() }
func (e *serialEngine) reject()                        { e.pipe.RecordRejected() }
func (e *serialEngine) stats() observatory.EngineStats { return e.pipe.Stats() }
func (e *serialEngine) synchronous() bool              { return true }

type shardedEngine struct {
	eng   *observatory.Sharded
	stage []*sie.Shared
}

func newShardedEngine(cfg observatory.Config, aggs []observatory.Aggregation, onSnapshot func(*tsv.Snapshot)) *shardedEngine {
	// The binary's defaults: Shards and Workers 0 (one per GOMAXPROCS).
	eng := observatory.NewSharded(observatory.ShardedConfig{Config: cfg}, aggs, onSnapshot)
	return &shardedEngine{eng: eng, stage: make([]*sie.Shared, stageCap)}
}

func (e *shardedEngine) slot(k int) *sie.Summary {
	e.stage[k] = e.eng.Borrow()
	return &e.stage[k].Summary
}
func (e *shardedEngine) ingest(k int, now float64)      { e.eng.IngestShared(e.stage[k], now) }
func (e *shardedEngine) discard(k int)                  { e.eng.Discard(e.stage[k]) }
func (e *shardedEngine) flush()                         { e.eng.Close() }
func (e *shardedEngine) reject()                        { e.eng.RecordRejected() }
func (e *shardedEngine) stats() observatory.EngineStats { return e.eng.Stats() }
func (e *shardedEngine) synchronous() bool              { return false }

// engineConfig is dnsobs's engine configuration, minus the process-wide
// metrics registry: rounds must not accumulate into shared state.
func engineConfig(withDetect bool) observatory.Config {
	cfg := observatory.DefaultConfig()
	if withDetect {
		dc := detect.DefaultConfig()
		cfg.Detect = &dc
	}
	return cfg
}

// sink is the store half of one ingest round: dnsobs's onSnapshot
// closure (web UI hook, mutex, Store.Put, WAL checkpoint), then the
// final cascade and retention. It also takes the publish-lag samples:
// mark is called just before the system is handed the transaction that
// closes a window, and the sample ends when that window's last
// Store.Put returns.
type sink struct {
	store     *tsv.Store
	ui        *webui.Server
	aggNames  []string
	perWindow int    // snapshots per window
	afterPut  func() // dnsobs's checkpoint hook; nil without a WAL

	tr        *tracer
	putParent int32 // span the tsv.put spans nest under

	mu        sync.Mutex
	err       error
	lastStart int64
	marks     map[int64]time.Time
	puts      map[int64]int
	putDur    map[int64]time.Duration
	lagMs     []float64 // crossing handed over → last put of the window returned
	dumpMs    []float64 // the same minus the window's time inside Store.Put
	putTotal  time.Duration
	windows   int // windows fully published
}

func newSink(dir, backend string, aggNames []string, tr *tracer) (*sink, error) {
	store, err := tsv.NewStoreBackend(dir, backend)
	if err != nil {
		return nil, err
	}
	return &sink{
		store:     store,
		ui:        webui.NewServer(store),
		aggNames:  aggNames,
		perWindow: len(aggNames),
		tr:        tr,
		lastStart: -1,
		marks:     map[int64]time.Time{},
		puts:      map[int64]int{},
		putDur:    map[int64]time.Duration{},
	}, nil
}

func (s *sink) mark(closed int64) {
	now := time.Now()
	s.mu.Lock()
	s.marks[closed] = now
	s.mu.Unlock()
}

func (s *sink) onSnapshot(snap *tsv.Snapshot) {
	s.ui.OnSnapshot(snap)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	id := s.tr.begin(s.putParent, "tsv.put")
	start := time.Now()
	err := s.store.Put(snap)
	done := time.Now()
	s.tr.end(id, int64(len(snap.Rows)))
	if err != nil {
		s.err = err
		return
	}
	s.lastStart = snap.Start
	if s.afterPut != nil {
		s.afterPut()
	}
	s.putTotal += done.Sub(start)
	s.putDur[snap.Start] += done.Sub(start)
	s.puts[snap.Start]++
	if s.puts[snap.Start] == s.perWindow {
		s.windows++
		if t0, ok := s.marks[snap.Start]; ok {
			lag := done.Sub(t0)
			s.lagMs = append(s.lagMs, ms(lag))
			s.dumpMs = append(s.dumpMs, ms(lag-s.putDur[snap.Start]))
			delete(s.marks, snap.Start)
		}
	}
}

func (s *sink) failed() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// finish runs the end-of-stream cascade and retention as dnsobs does.
func (s *sink) finish(parent int32) error {
	if err := s.failed(); err != nil {
		return err
	}
	id := s.tr.begin(parent, "tsv.cascade")
	defer s.tr.end(id, 1)
	if err := s.store.CascadeAll(s.aggNames, s.lastStart+windowSec); err != nil {
		return fmt.Errorf("cascade: %w", err)
	}
	for _, name := range s.aggNames {
		if err := s.store.Retention(name); err != nil {
			return fmt.Errorf("retention: %w", err)
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ingester is dnsobs's per-transaction loop body: reject what cannot be
// windowed, summarize into the engine's buffer, ingest at stream time.
type ingester struct {
	eng        engine
	summarizer sie.Summarizer
	base       time.Time
	wt         windowTracker
	// onCross, when set, runs just before the engine is handed a
	// transaction that closes the window starting at closed.
	onCross func(closed int64)
	snk     *sink
	// Under trace, on a synchronous engine, the ingest call that closes a
	// window runs under an observatory.dump span (a child of dumpParent)
	// so the dump is not billed to ingest.
	tr         *tracer
	dumpParent int32
}

func newIngester(eng engine, snk *sink, tr *tracer) *ingester {
	in := &ingester{eng: eng, snk: snk, tr: tr}
	in.summarizer.KeepUnparsableResponses = true
	return in
}

// admit applies dnsobs's pre-summarize checks and summarizes tx into
// slot k. It reports false when the transaction was rejected.
func (in *ingester) admit(tx *sie.Transaction, k int) bool {
	if tx.QueryTime.IsZero() || (!in.base.IsZero() && tx.QueryTime.Before(in.base)) {
		in.eng.reject()
		return false
	}
	if err := in.summarizer.Summarize(tx, in.eng.slot(k)); err != nil {
		in.eng.discard(k)
		in.eng.reject()
		return false
	}
	if in.base.IsZero() {
		in.base = tx.QueryTime.Truncate(time.Minute)
	}
	return true
}

// commit ingests slot k, summarized from tx.
func (in *ingester) commit(tx *sie.Transaction, k int) {
	now := tx.QueryTime.Sub(in.base).Seconds()
	if in.onCross == nil {
		in.eng.ingest(k, now)
		return
	}
	closed, crossed := in.wt.cross(now)
	if !crossed {
		in.eng.ingest(k, now)
		return
	}
	in.onCross(closed)
	if in.tr != nil && in.eng.synchronous() {
		id := in.tr.begin(in.dumpParent, "observatory.dump")
		in.snk.putParent = id
		in.eng.ingest(k, now)
		in.tr.end(id, 1)
		return
	}
	in.eng.ingest(k, now)
}

// one is the untraced path: one transaction through slot 0.
func (in *ingester) one(tx *sie.Transaction) {
	if in.admit(tx, 0) {
		in.commit(tx, 0)
	}
}

// stageAllocs accumulates the heap objects allocated during the two
// engine-side stages of the traced loops.
type stageAllocs struct {
	summarize uint64
	ingest    uint64
}

// staged runs one batch through the two engine-side stages, each under
// its own span: summarize everything, then ingest everything.
func (in *ingester) staged(batch []*sie.Transaction, parent int32, ok []bool, sa *stageAllocs) {
	a0 := readAllocs()
	id := in.tr.begin(parent, "sie.summarize")
	for k, tx := range batch {
		ok[k] = in.admit(tx, k)
	}
	in.tr.end(id, int64(len(batch)))
	a1 := readAllocs()

	id = in.tr.begin(parent, "observatory.ingest")
	in.dumpParent = id
	n := 0
	for k, tx := range batch {
		if ok[k] {
			in.commit(tx, k)
			n++
		}
	}
	in.tr.end(id, int64(n))
	a2 := readAllocs()
	sa.summarize += a1.objects - a0.objects
	sa.ingest += a2.objects - a1.objects
}

// flush ends the stream: the engine's final window, under a span.
func (in *ingester) flush(parent int32) {
	name := "observatory.sharded_close"
	if in.eng.synchronous() {
		name = "observatory.dump"
	}
	id := in.tr.begin(parent, name)
	if in.eng.synchronous() {
		in.snk.putParent = id
	}
	in.eng.flush()
	in.tr.end(id, 1)
}
