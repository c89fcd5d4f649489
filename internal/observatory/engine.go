package observatory

import (
	"runtime"
	"sync"

	"dnsobservatory/internal/sie"
	"dnsobservatory/internal/tsv"
)

// Engine is the ingest engine in one of two shapes (see the package
// comment): New's inline shape is synchronous and single-owner,
// NewSharded's worker shape takes any number of producers. The shape is
// told by one test, merges == nil, in Ingest, IngestShared and Close.
type Engine struct {
	core
	pool sync.Pool // of *sie.Shared: Borrow, Discard, and batches' summaries
	// The worker shape only. slots is a batch item's slot count: one per
	// aggregation, and a trailing detect slot when detection is on.
	slots     int
	batchPool sync.Pool
	mergeDone chan struct{}
	mu        sync.Mutex // guards cur and closed
	cur       *shardBatch
}

// ShardedConfig tunes the worker shape on top of the engine Config.
type ShardedConfig struct {
	Config
	// Shards is the number of key-hash shards per aggregation. 0 means
	// one per worker. Capped at 1024.
	Shards int
	// Workers is the number of shard worker goroutines. 0 means
	// GOMAXPROCS capped at 16. Workers above Shards would idle and are
	// clamped down.
	Workers int
	// BatchSize is the fan-out batch length (default 256). Windows are
	// 60 s, so a few hundred transactions of delay is invisible.
	BatchSize int
}

// queueLen is the per-worker batch queue depth. A full queue blocks
// dispatch: the engine applies backpressure and never drops a summary.
const queueLen = 4

// New builds the inline shape over the given aggregations. onSnapshot,
// which may be nil, receives each window's snapshot per aggregation.
func New(cfg Config, aggs []Aggregation, onSnapshot func(*tsv.Snapshot)) *Engine {
	e := new(Engine)
	e.init(cfg, "serial", aggs, onSnapshot, 1, 1, func(k int) int { return k })
	e.pool.New = func() any { return new(sie.Shared) }
	return e
}

// NewSharded builds the worker shape. onSnapshot may be nil; when set
// it receives every window's merged snapshot per aggregation, serialized
// on one goroutine. It must not call back into the engine.
func NewSharded(cfg ShardedConfig, aggs []Aggregation, onSnapshot func(*tsv.Snapshot)) *Engine {
	workers := cfg.Workers
	if workers <= 0 {
		workers = min(runtime.GOMAXPROCS(0), 16)
	}
	shards := cfg.Shards
	if shards <= 0 {
		shards = workers
	}
	shards = min(shards, 1024)
	workers = min(workers, shards)
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = 256
	}
	e := &Engine{mergeDone: make(chan struct{})}
	e.pool.New = func() any { return new(sie.Shared) }
	e.init(cfg.Config, "sharded", aggs, onSnapshot, shards, workers, func(k int) int { return shardCapacity(k, shards) })
	e.merges = make(chan *shardDump, workers)
	e.slots = len(aggs)
	if e.det != nil {
		e.slots++
	}
	nSlots := e.slots
	e.batchPool.New = func() any {
		return &shardBatch{
			sums:   make([]*sie.Shared, 0, batch),
			nows:   make([]float64, 0, batch),
			keyBuf: make([]byte, 0, batch*nSlots*16),
			ends:   make([]uint32, 0, batch*nSlots),
			meta:   make([]uint16, 0, batch*nSlots),
		}
	}
	e.cur = e.batchPool.Get().(*shardBatch)
	for _, w := range e.workers {
		w.in = make(chan *shardBatch, queueLen)
		w.done = make(chan struct{})
		go e.run(w)
	}
	cfg.Metrics.GaugeFunc(MetricQueueDepth, "batches queued across shard workers", func() float64 {
		var n int
		for _, w := range e.workers {
			n += len(w.in)
		}
		return float64(n)
	}, "engine", "sharded")
	go e.mergeLoop()
	return e
}

// Workers returns the number of worker goroutines; 1 for the inline
// shape, whose one worker is the caller.
func (e *Engine) Workers() int { return len(e.workers) }

// Shards returns the number of key-hash shards per aggregation.
func (e *Engine) Shards() int { return e.shards }

// Ingest processes one summary observed at stream time now (seconds).
// The inline shape folds it on the spot; the worker shape copies it
// into a pooled buffer and enqueues that, so the caller may reuse sum
// (and its slices) immediately. Crossing a window boundary closes the
// window (see worker.enter for late data). After Close it does nothing.
func (e *Engine) Ingest(sum *sie.Summary, now float64) {
	if e.merges == nil {
		e.ingestInline(sum, now)
		return
	}
	ps := e.Borrow()
	ps.CopyFrom(sum)
	e.IngestShared(ps, now)
}

// Borrow returns a pooled summary buffer for the zero-copy ingest path.
// Its content is stale from a previous use: fill &buf.Summary directly
// (e.g. with Summarizer.Summarize, whose slice-reuse contract keeps warm
// buffers allocation-free) and hand it to IngestShared. Each Borrow must
// be matched by exactly one IngestShared or Discard call.
func (e *Engine) Borrow() *sie.Shared { return e.pool.Get().(*sie.Shared) }

// IngestShared ingests a borrowed buffer without copying it: the inline
// shape folds it and returns it to the pool, the worker shape stages it
// in a batch that returns it once every worker has read it. The caller
// must not touch the buffer afterwards. On the worker shape it is safe
// for concurrent producers.
func (e *Engine) IngestShared(ps *sie.Shared, now float64) {
	if e.merges == nil {
		e.ingestInline(&ps.Summary, now)
		e.pool.Put(ps)
		return
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.Discard(ps)
		return
	}
	e.add(ps, now)
	e.mu.Unlock()
}

// Discard takes back a borrowed buffer that will not be ingested.
func (e *Engine) Discard(ps *sie.Shared) { e.pool.Put(ps) }

// Close ends the stream: it closes the open (possibly partial) window
// and delivers its snapshots. On the worker shape it first dispatches
// the pending batch, then waits for every worker and the merger; every
// batch has by then returned its buffers to the pool. It does so once;
// later Close and Ingest calls do nothing.
func (e *Engine) Close() {
	if e.merges == nil {
		if !e.closed {
			e.closed = true
			e.workers[0].finish()
		}
		return
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.dispatchLocked()
	e.mu.Unlock()
	for _, w := range e.workers {
		close(w.in)
	}
	for _, w := range e.workers {
		<-w.done
	}
	close(e.merges)
	<-e.mergeDone
}

// ingestInline is the inline shape's ingest. It prepares sum in place
// (features.Set.Prepare); a summary other goroutines read must be
// prepared before it is shared.
//
// Keys stay as the key functions return them — a string goes to
// Cache.Observe as a string — and are not staged through a batch's byte
// buffer as the worker shape's are: a key that enters a cache as bytes
// is copied where a string is kept.
func (e *Engine) ingestInline(sum *sie.Summary, now float64) {
	if e.closed {
		return
	}
	w := e.workers[0]
	now = w.enter(now, sum)
	e.m.ingested.Inc()
	e.m.accepted.Inc()
	// Once per transaction, before any key function: the esld and etld
	// keys read the suffix walk it memoizes, and a fold records the hashes.
	e.prep.Prepare(sum)
	for _, shards := range w.states {
		st := shards[0]
		st.seenBefore++
		if st.agg.KeyBytes != nil {
			kb, ok := st.agg.KeyBytes(sum, st.keyBuf[:0])
			st.keyBuf = kb[:0]
			if ok {
				st.fold(st.cache.ObserveBytes(kb, now), sum, w.windowStart, &e.cfg)
			}
			continue
		}
		if key, ok := st.agg.Key(sum); ok {
			st.fold(st.cache.Observe(key, now), sum, w.windowStart, &e.cfg)
		}
	}
	if e.det != nil {
		e.det.Observe(sum, now)
	}
}

// Pipeline, Sharded and Flush are the names the two shapes had when they
// were two types. cmd/dnsbench, the benchmark harness, still uses them
// and is not edited together with the engine; nothing else may.
type (
	Pipeline = Engine
	Sharded  = Engine
)

// Flush is Close.
func (e *Engine) Flush() { e.Close() }
