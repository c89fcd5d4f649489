package observatory

import (
	"net/netip"
	"sync"

	"dnsobservatory/internal/features"
	"dnsobservatory/internal/sie"
	"dnsobservatory/internal/tsv"
)

// Parallel runs each aggregation's pipeline on its own goroutine, with
// summaries deep-copied once per Ingest and fanned out in batches;
// snapshot callbacks are serialized. It is the legacy fan-out, kept as a
// comparison baseline: throughput is capped by the heaviest aggregation
// and every Ingest pays a deep copy. Prefer Sharded, which partitions
// each aggregation's key space across workers and fans out pooled
// buffers instead.
//
// Create with NewParallel, feed with Ingest, and always Close (which
// flushes the final window).
type Parallel struct {
	workers []*aggWorker
	prep    *features.Set // folds nothing: the set Ingest prepares summaries on

	mu     sync.Mutex // serializes onSnapshot
	batch  []ingestItem
	closed bool

	m *engineMetrics // producers bump ingested/rejected, workers panics
}

type ingestItem struct {
	sum sie.Summary
	now float64
}

type aggWorker struct {
	eng  *Parallel
	cfg  *Config
	pipe *Pipeline
	in   chan []ingestItem
	done chan struct{}
}

// batchSize balances channel overhead against latency; windows are 60 s,
// so a few hundred transactions of delay is invisible.
const batchSize = 256

// NewParallel builds one single-aggregation pipeline per entry of aggs.
func NewParallel(cfg Config, aggs []Aggregation, onSnapshot func(*tsv.Snapshot)) *Parallel {
	p := &Parallel{prep: features.NewSet(cfg.Features)}
	p.m = newEngineMetrics(cfg.Metrics, "parallel")
	// The sub-pipelines must not publish: each would count the same
	// stream again under engine="serial". Only this engine's counters
	// (and per-agg gauges, which the legacy baseline skips) are visible.
	cfg.Metrics = nil
	// Likewise each sub-pipeline would run its own copy of the detection
	// layer over the same stream. The legacy baseline does not carry
	// detection; use the serial or sharded engine for it.
	cfg.Detect = nil
	emit := func(s *tsv.Snapshot) {
		if onSnapshot == nil {
			return
		}
		p.mu.Lock()
		defer p.mu.Unlock()
		onSnapshot(s)
	}
	for _, a := range aggs {
		w := &aggWorker{
			eng:  p,
			pipe: New(cfg, []Aggregation{a}, emit),
			in:   make(chan []ingestItem, 4),
			done: make(chan struct{}),
		}
		w.cfg = &w.pipe.cfg
		p.workers = append(p.workers, w)
		go w.run()
	}
	return p
}

func (w *aggWorker) run() {
	defer close(w.done)
	for batch := range w.in {
		for i := range batch {
			w.ingestItem(&batch[i])
		}
	}
	w.pipe.Flush()
}

// ingestItem folds one summary into this worker's pipeline, recovering
// a panic by quarantining the summary for this aggregation: the item is
// skipped, counted, and the worker keeps consuming — the window stays
// alive.
func (w *aggWorker) ingestItem(it *ingestItem) {
	defer func() {
		if r := recover(); r != nil {
			w.eng.m.panics.Inc()
			w.eng.m.quarantined.Inc()
		}
	}()
	if hook := w.cfg.ChaosHook; hook != nil {
		hook(&it.sum)
	}
	w.pipe.Ingest(&it.sum, it.now)
}

// Ingest enqueues one summary. The summary is deep-copied; the caller
// may reuse it (and its slices) immediately.
func (p *Parallel) Ingest(sum *sie.Summary, now float64) {
	if p.closed {
		return
	}
	p.m.ingested.Inc()
	p.m.accepted.Inc()
	// Batch items are shared by every worker, so a summary must be
	// prepared before dispatch — workers only read it.
	p.prep.Prepare(sum)
	p.batch = append(p.batch, ingestItem{sum: copySummary(sum), now: now})
	if len(p.batch) >= batchSize {
		p.dispatch()
	}
}

// RecordRejected accounts one transaction rejected before reaching the
// engine (malformed wire input the summarizer refused). Like Ingest it
// is producer-side and not safe for concurrent producers.
func (p *Parallel) RecordRejected() {
	p.m.ingested.Inc()
	p.m.rejected.Inc()
}

// Stats returns the engine's ingest accounting. The parallel engine
// only blocks (no shed policy), so Accepted = Ingested − Rejected.
// Stats reads the counters the engine publishes to its metrics
// registry, so the two views agree by construction.
func (p *Parallel) Stats() EngineStats { return p.m.stats() }

// dispatch hands the pending batch to every worker.
func (p *Parallel) dispatch() {
	if len(p.batch) == 0 {
		return
	}
	batch := p.batch
	p.batch = nil
	for _, w := range p.workers {
		w.in <- batch
	}
}

// Close flushes pending batches and final windows, then waits for all
// workers. Safe to call once.
func (p *Parallel) Close() {
	if p.closed {
		return
	}
	p.closed = true
	p.dispatch()
	for _, w := range p.workers {
		close(w.in)
	}
	for _, w := range p.workers {
		<-w.done
	}
}

// copySummary deep-copies the slices that the Summarizer reuses.
func copySummary(sum *sie.Summary) sie.Summary {
	out := *sum
	out.V4Addrs = append([]netip.Addr(nil), sum.V4Addrs...)
	out.V6Addrs = append([]netip.Addr(nil), sum.V6Addrs...)
	out.V4Strs = append([]string(nil), sum.V4Strs...)
	out.V6Strs = append([]string(nil), sum.V6Strs...)
	out.V4Hashes = append([]uint64(nil), sum.V4Hashes...)
	out.V6Hashes = append([]uint64(nil), sum.V6Hashes...)
	out.AnswerTTLs = append([]uint32(nil), sum.AnswerTTLs...)
	out.NSTTLs = append([]uint32(nil), sum.NSTTLs...)
	out.NSNames = append([]string(nil), sum.NSNames...)
	return out
}
