package observatory

import (
	"sort"
	"sync"
	"sync/atomic"

	"dnsobservatory/internal/sie"
)

// The worker shape of the Engine (NewSharded). Dispatch (add) extracts
// every aggregation's key once per summary and hashes it to one of S
// shards; each worker runs its shards' caches (capacity ⌈K/S⌉ + slack)
// and admitters and carries 1/S of every aggregation's load. Key
// partitions are disjoint, so the merger's union of the workers' parts is
// exact, and each row's overestimation bound is its own shard's min
// count. Every worker sees every batch and crosses window boundaries at
// the same item, so the merged snapshots are deterministic.

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

// add appends one pooled summary to the pending batch, extracting and
// hashing every aggregation's key exactly once. Caller holds e.mu.
func (e *Engine) add(ps *sie.Shared, now float64) {
	b := e.cur
	b.sums = append(b.sums, ps)
	b.nows = append(b.nows, now)
	sum := &ps.Summary
	// Memoize feature hashes and bucket hints here, on the single
	// dispatcher, before the buffer is frozen and fanned out to
	// concurrently-reading workers.
	e.prep.Prepare(sum)
	for i := range e.aggs {
		start := len(b.keyBuf)
		var ok bool
		if kb := e.aggs[i].KeyBytes; kb != nil {
			b.keyBuf, ok = kb(sum, b.keyBuf)
		} else {
			var key string
			if key, ok = e.aggs[i].Key(sum); ok {
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
		b.meta = append(b.meta, uint16(hashKey(b.keyBuf[start:])%uint64(e.shards))+1)
	}
	if e.det != nil {
		// The trailing detect slot: eSLD key bytes plus the detector's
		// own partition index (NOT the shard index — detect partitions
		// are fixed so inline and worker merges stay byte-identical).
		start := len(b.keyBuf)
		kb, part, ok := e.det.AppendKey(sum, b.keyBuf)
		b.keyBuf = kb
		if ok {
			b.ends = append(b.ends, uint32(len(b.keyBuf)))
			b.meta = append(b.meta, uint16(part)+1)
		} else {
			b.ends = append(b.ends, uint32(start))
			b.meta = append(b.meta, 0)
		}
	}
	e.m.ingested.Inc()
	if len(b.sums) >= cap(b.sums) {
		e.dispatchLocked()
	}
}

// dispatchLocked hands the pending batch to every worker, waiting for
// room in each queue: every worker sees an identical batch sequence, the
// invariant window merging relies on. Caller holds e.mu.
func (e *Engine) dispatchLocked() {
	b := e.cur
	if len(b.sums) == 0 {
		return
	}
	e.m.accepted.Add(uint64(len(b.sums)))
	e.cur = e.batchPool.Get().(*shardBatch)
	b.refs.Store(int32(len(e.workers)))
	for _, w := range e.workers {
		w.in <- b
	}
}

// run is the loop of one worker goroutine: fold every batch into the
// worker's shards, then close the final window when the engine closes.
// Every worker scans every batch (the scan is a cheap modulo filter per
// item×agg; feature accumulation, the expensive part, runs only on the
// owner), so all workers observe identical window boundaries.
func (e *Engine) run(w *worker) {
	defer close(w.done)
	for b := range w.in {
		for i, now := range b.nows {
			e.processItem(w, b, i, w.enter(now, &b.sums[i].Summary))
		}
		if b.refs.Add(-1) == 0 { // the last worker to finish a batch recycles it
			b.reset(&e.pool)
			e.batchPool.Put(b)
		}
	}
	w.finish()
}

// processItem folds one summary into w's shards, recovering a panic
// (from corrupt data or an injected fault) by quarantining the summary:
// this worker's contribution is abandoned and counted, every other
// worker and every later summary proceeds, and the window stays alive.
func (e *Engine) processItem(w *worker, b *shardBatch, i int, now float64) {
	defer func() {
		if r := recover(); r != nil {
			e.m.panics.Inc()
			e.m.quarantined.Inc()
		}
	}()
	nAggs := len(e.aggs)
	nWorkers := len(e.workers)
	det := e.det
	if w.id == 0 {
		// Worker 0 keeps the before-filtering count for every
		// aggregation (it sees every item; counting it once keeps the
		// merged TotalBefore identical to the inline shape's).
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
	if hook := e.cfg.ChaosHook; hook != nil {
		hook(sum)
	}
	base := i * e.slots
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
		st.fold(st.cache.ObserveBytes(b.key(base+a), now), sum, w.windowStart, &e.cfg)
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
func (e *Engine) mergeLoop() {
	defer close(e.mergeDone)
	pending := make(map[float64][]*shardDump)
	for d := range e.merges {
		dumps := append(pending[d.windowStart], d)
		if len(dumps) < len(e.workers) {
			pending[d.windowStart] = dumps
			continue
		}
		delete(pending, d.windowStart)
		e.emitWindow(d.windowStart, dumps)
	}
	starts := make([]float64, 0, len(pending))
	for ws := range pending {
		starts = append(starts, ws)
	}
	sort.Float64s(starts)
	for _, ws := range starts {
		e.emitWindow(ws, pending[ws])
	}
}
