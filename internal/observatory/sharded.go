package observatory

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"dnsobservatory/internal/sie"
	"dnsobservatory/internal/tsv"
)

// Sharded is the key-hash-sharded ingest engine — the production shape
// for a 200 k tx/s feed (paper §2, §3.1) — and the many-worker
// configuration of the engine core. It:
//
//   - extracts every aggregation's key exactly once per summary and
//     hashes it to one of S shards, so each worker runs an independent
//     spacesaving.Cache (capacity ⌈K/S⌉ + slack) plus Bloom admitter per
//     shard per aggregation and carries 1/S of every aggregation's load
//     — throughput is not capped by the heaviest aggregation;
//   - fans summaries out in batches of pooled sie.Shared buffers that
//     every worker reads and the batch owns — the last worker to finish
//     a batch returns them to the pool — so no Ingest pays a deep copy;
//   - merges per-shard state into one Top-k snapshot per aggregation at
//     each window boundary (the standard parallel Space-Saving merge:
//     key partitions are disjoint, so the union is exact and the
//     overestimation bound of each row is its own shard's min count).
//
// Every worker sees every batch and crosses window boundaries at the
// same item, so the merged snapshots are deterministic for a fixed input
// order. Ingest is safe for concurrent producers; snapshot callbacks are
// serialized on the merger goroutine. Always Close (it flushes the final
// window).
type Sharded struct {
	core
	// slots is the per-item slot count in a batch: one per aggregation,
	// plus one trailing detect slot when the detection layer is on.
	slots     int
	overload  OverloadPolicy
	pool      sync.Pool // of *sie.Shared
	batchPool sync.Pool
	mergeDone chan struct{}

	mu  sync.Mutex // guards cur and closed
	cur *shardBatch
}

// OverloadPolicy selects what dispatch does when a worker queue is full.
type OverloadPolicy int

const (
	// Block applies backpressure: Ingest waits for the slowest worker.
	// The default, and the right choice when the producer can stall
	// (offline replay, a file, an upstream with its own buffering).
	Block OverloadPolicy = iota
	// Shed drops the whole pending batch when any worker queue is full,
	// counting every dropped summary in Stats().Shed. The right choice
	// for a live feed that must never stall the capture path. Batches
	// are shed atomically across workers, so all workers still observe
	// identical batch sequences and window boundaries.
	Shed
)

// ShardedConfig tunes the sharded engine on top of the pipeline Config.
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
	// Overload selects the bounded-queue policy when workers fall
	// behind: Block (default) applies backpressure, Shed drops batches
	// with accounting.
	Overload OverloadPolicy
	// QueueLen is the per-worker batch queue depth (default 4). With
	// Overload == Shed it bounds how much work can be in flight before
	// dispatch starts dropping.
	QueueLen int
}

// shardBatch carries up to BatchSize summaries with their pre-extracted
// keys. Keys live concatenated in one shared byte buffer: for item i and
// aggregation a, slot j = i*len(aggs)+a, the key is
// keyBuf[ends[j-1]:ends[j]] (ends[-1] = 0) and meta[j] is 0 when the key
// function filtered the item out, else the shard index + 1. One buffer
// instead of per-slot strings means composite keys (srcsrv) are built
// without allocating, and recycling a batch never needs to clear string
// pointers. A batch owns the summaries staged in it. Batches are pooled
// and recycled, summaries first, by whichever worker finishes last (run).
type shardBatch struct {
	refs   atomic.Int32
	sums   []*sie.Shared
	nows   []float64
	keyBuf []byte
	ends   []uint32
	meta   []uint16
}

// key returns slot j's key bytes.
func (b *shardBatch) key(j int) []byte {
	start := uint32(0)
	if j > 0 {
		start = b.ends[j-1]
	}
	return b.keyBuf[start:b.ends[j]]
}

// reset empties the batch, returning its summaries to pool. The key
// buffer holds no pointers, so truncation is enough.
func (b *shardBatch) reset(pool *sync.Pool) {
	for i, ps := range b.sums {
		pool.Put(ps)
		b.sums[i] = nil
	}
	b.sums = b.sums[:0]
	b.nows = b.nows[:0]
	b.keyBuf = b.keyBuf[:0]
	b.ends = b.ends[:0]
	b.meta = b.meta[:0]
}

// shardCapacity sizes one shard's Space-Saving cache: an even split of K
// plus slack for the statistical imbalance of hash partitioning.
func shardCapacity(k, shards int) int {
	base := (k + shards - 1) / shards
	return base + base/8 + 16
}

// hashKey is FNV-1a over either view of a key; allocation-free and
// stable, so a key always lands on the same shard.
func hashKey[K ~string | ~[]byte](key K) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

// NewSharded builds the sharded engine. onSnapshot may be nil; when set
// it receives every window's merged snapshot per aggregation, serialized
// on one goroutine. It must not call back into the engine.
func NewSharded(cfg ShardedConfig, aggs []Aggregation, onSnapshot func(*tsv.Snapshot)) *Sharded {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if workers > 16 {
			workers = 16
		}
	}
	shards := cfg.Shards
	if shards <= 0 {
		shards = workers
	}
	if shards > 1024 {
		shards = 1024
	}
	if workers > shards {
		workers = shards
	}
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = 256
	}
	queue := cfg.QueueLen
	if queue <= 0 {
		queue = 4
	}
	s := &Sharded{
		overload:  cfg.Overload,
		mergeDone: make(chan struct{}),
	}
	s.pool.New = func() any { return new(sie.Shared) }
	s.init(cfg.Config, "sharded", aggs, onSnapshot, shards, workers, func(k int) int { return shardCapacity(k, shards) })
	s.merges = make(chan *shardDump, workers)
	s.slots = len(aggs)
	if s.det != nil {
		s.slots++
	}
	nSlots := s.slots
	s.batchPool.New = func() any {
		return &shardBatch{
			sums:   make([]*sie.Shared, 0, batch),
			nows:   make([]float64, 0, batch),
			keyBuf: make([]byte, 0, batch*nSlots*16),
			ends:   make([]uint32, 0, batch*nSlots),
			meta:   make([]uint16, 0, batch*nSlots),
		}
	}
	s.cur = s.batchPool.Get().(*shardBatch)
	for _, w := range s.workers {
		w.in = make(chan *shardBatch, queue)
		w.done = make(chan struct{})
		go s.run(w)
	}
	cfg.Metrics.GaugeFunc(MetricQueueDepth, "batches queued across shard workers", func() float64 {
		var n int
		for _, w := range s.workers {
			n += len(w.in)
		}
		return float64(n)
	}, "engine", "sharded")
	go s.mergeLoop()
	return s
}

// Workers returns the number of shard worker goroutines.
func (s *Sharded) Workers() int { return len(s.workers) }

// Shards returns the number of key-hash shards per aggregation.
func (s *Sharded) Shards() int { return s.shards }

// Ingest enqueues one summary. The summary is copied into a pooled
// buffer; the caller may reuse it (and its slices) immediately. Safe for
// concurrent producers.
func (s *Sharded) Ingest(sum *sie.Summary, now float64) {
	ps := s.Borrow()
	ps.CopyFrom(sum)
	s.IngestShared(ps, now)
}

// Borrow returns a pooled summary buffer for the zero-copy ingest path.
// Its content is stale from a previous use: fill &buf.Summary directly
// (e.g. with Summarizer.Summarize, whose slice-reuse contract keeps warm
// buffers allocation-free) and hand it to IngestShared. Each Borrow must
// be matched by exactly one IngestShared or Discard call.
func (s *Sharded) Borrow() *sie.Shared { return s.pool.Get().(*sie.Shared) }

// IngestShared enqueues a borrowed buffer without copying it. The caller
// must not touch the buffer afterwards. Safe for concurrent producers.
func (s *Sharded) IngestShared(ps *sie.Shared, now float64) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.Discard(ps)
		return
	}
	s.add(ps, now)
	s.mu.Unlock()
}

// Discard takes back a borrowed buffer that will not be ingested.
func (s *Sharded) Discard(ps *sie.Shared) { s.pool.Put(ps) }

// add appends one pooled summary to the pending batch, extracting and
// hashing every aggregation's key exactly once. Caller holds s.mu.
func (s *Sharded) add(ps *sie.Shared, now float64) {
	b := s.cur
	b.sums = append(b.sums, ps)
	b.nows = append(b.nows, now)
	sum := &ps.Summary
	// Memoize feature hashes and bucket hints here, on the single
	// dispatcher, before the buffer is frozen and fanned out to
	// concurrently-reading workers.
	s.prep.Prepare(sum)
	for i := range s.aggs {
		start := len(b.keyBuf)
		var ok bool
		if kb := s.aggs[i].KeyBytes; kb != nil {
			b.keyBuf, ok = kb(sum, b.keyBuf)
		} else {
			var key string
			if key, ok = s.aggs[i].Key(sum); ok {
				b.keyBuf = append(b.keyBuf, key...)
			}
		}
		if !ok {
			b.keyBuf = b.keyBuf[:start]
			b.ends = append(b.ends, uint32(start))
			b.meta = append(b.meta, 0)
			continue
		}
		b.ends = append(b.ends, uint32(len(b.keyBuf)))
		b.meta = append(b.meta, uint16(hashKey(b.keyBuf[start:])%uint64(s.shards))+1)
	}
	if s.det != nil {
		// The trailing detect slot: eSLD key bytes plus the detector's
		// own partition index (NOT the shard index — detect partitions
		// are fixed so serial and sharded merges stay byte-identical).
		start := len(b.keyBuf)
		kb, part, ok := s.det.AppendKey(sum, b.keyBuf)
		b.keyBuf = kb
		if ok {
			b.ends = append(b.ends, uint32(len(b.keyBuf)))
			b.meta = append(b.meta, uint16(part)+1)
		} else {
			b.ends = append(b.ends, uint32(start))
			b.meta = append(b.meta, 0)
		}
	}
	s.m.ingested.Inc()
	if len(b.sums) >= cap(b.sums) {
		s.dispatchLocked()
	}
}

// dispatchLocked hands the pending batch to every worker, or sheds it
// whole under the Shed overload policy when any worker queue is full.
// Shedding is all-or-nothing per batch so every worker still sees an
// identical batch sequence (the invariant window merging relies on).
// Caller holds s.mu.
func (s *Sharded) dispatchLocked() {
	b := s.cur
	if len(b.sums) == 0 {
		return
	}
	if s.overload == Shed {
		// Only this dispatcher fills the queues, so a below-capacity
		// check here guarantees the sends below do not block.
		for _, w := range s.workers {
			if len(w.in) == cap(w.in) {
				s.m.shed.Add(uint64(len(b.sums)))
				b.reset(&s.pool)
				return
			}
		}
	}
	s.m.accepted.Add(uint64(len(b.sums)))
	s.cur = s.batchPool.Get().(*shardBatch)
	b.refs.Store(int32(len(s.workers)))
	for _, w := range s.workers {
		w.in <- b
	}
}

// Close flushes pending batches and the final partial window and waits
// for all workers and the snapshot merger; every batch has by then
// returned its buffers to the pool. Safe to call once; later Ingests are
// no-ops.
func (s *Sharded) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.dispatchLocked()
	s.mu.Unlock()
	for _, w := range s.workers {
		close(w.in)
	}
	for _, w := range s.workers {
		<-w.done
	}
	close(s.merges)
	<-s.mergeDone
}

// run is the loop of one worker goroutine: fold every batch into the
// worker's shards, then close the final window when the engine closes.
// Every worker scans every batch (the scan is a cheap modulo filter per
// item×agg; feature accumulation, the expensive part, runs only on the
// owner), so all workers observe identical window boundaries.
func (s *Sharded) run(w *worker) {
	defer close(w.done)
	for b := range w.in {
		for i, now := range b.nows {
			s.processItem(w, b, i, w.enter(now))
		}
		if b.refs.Add(-1) == 0 { // the last worker to finish a batch recycles it
			b.reset(&s.pool)
			s.batchPool.Put(b)
		}
	}
	w.finish()
}

// processItem folds one summary into w's shards, recovering a panic
// (from corrupt data or an injected fault) by quarantining the summary:
// this worker's contribution is abandoned and counted, every other
// worker and every later summary proceeds, and the window stays alive.
func (s *Sharded) processItem(w *worker, b *shardBatch, i int, now float64) {
	defer func() {
		if r := recover(); r != nil {
			s.m.panics.Inc()
			s.m.quarantined.Inc()
		}
	}()
	nAggs := len(s.aggs)
	nWorkers := len(s.workers)
	det := s.det
	if w.id == 0 {
		// Worker 0 keeps the before-filtering count for every
		// aggregation (it sees every item; counting it once keeps the
		// merged TotalBefore identical to the serial pipeline's).
		for a := 0; a < nAggs; a++ {
			w.states[a][0].seenBefore++
		}
		if det != nil {
			// Worker 0 always owns detect partition 0, where the
			// detector keeps its pre-filter count.
			det.RecordOffered()
		}
	}
	sum := &b.sums[i].Summary
	if hook := s.cfg.ChaosHook; hook != nil {
		hook(sum)
	}
	base := i * s.slots
	for a := 0; a < nAggs; a++ {
		m := b.meta[base+a]
		if m == 0 {
			continue
		}
		shard := int(m - 1)
		if shard%nWorkers != w.id {
			continue
		}
		st := w.states[a][shard/nWorkers]
		st.fold(st.cache.ObserveBytes(b.key(base+a), now), sum, w.windowStart, &s.cfg)
	}
	if det != nil {
		if m := b.meta[base+nAggs]; m != 0 {
			part := int(m - 1)
			if part%nWorkers == w.id {
				det.ObservePartition(part, b.key(base+nAggs), sum, now)
			}
		}
	}
}

// mergeLoop collects the workers' dumps; once a window has one dump per
// worker it emits its snapshots. Workers close windows in order and the
// channel is FIFO, so windows complete in order too. Any window still
// partial when the engine closes (a worker died before contributing —
// impossible under normal supervision, which always sends a dump, but
// defended against anyway) is emitted from whatever dumps arrived rather
// than dropped.
func (s *Sharded) mergeLoop() {
	defer close(s.mergeDone)
	pending := make(map[float64][]*shardDump)
	for d := range s.merges {
		dumps := append(pending[d.windowStart], d)
		if len(dumps) < len(s.workers) {
			pending[d.windowStart] = dumps
			continue
		}
		delete(pending, d.windowStart)
		s.emitWindow(d.windowStart, dumps)
	}
	starts := make([]float64, 0, len(pending))
	for ws := range pending {
		starts = append(starts, ws)
	}
	sort.Float64s(starts)
	for _, ws := range starts {
		s.emitWindow(ws, pending[ws])
	}
}
