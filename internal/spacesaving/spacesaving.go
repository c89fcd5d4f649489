package spacesaving

import (
	"math"
	"slices"

	"dnsobservatory/internal/bloom"
)

// Entry is a monitored object.
type Entry struct {
	Key   string
	Count uint64  // estimated hits, includes inherited error
	Error uint64  // max overestimation (count of the entry evicted for us)
	Rate  float64 // exponentially decayed transactions per second

	// State is arbitrary per-object state attached by the caller — the
	// Observatory hangs its feature accumulators here. It survives
	// rate/count updates but is discarded on eviction (see
	// Cache.OnEvictState for recycling it instead).
	State any

	// InsertedAt is the stream time the key last entered the cache; the
	// Observatory skips objects younger than one window when dumping
	// snapshots (§2.4).
	InsertedAt float64

	index  int     // heap index
	rateAt float64 // time of the last rate update
}

// Cache is a Space-Saving top-k cache. Create one with New. Cache is not
// safe for concurrent use.
type Cache struct {
	capacity  int
	halfLife  float64 // seconds for a rate estimate to decay by half
	entries   map[string]*Entry
	min       minHeap
	admitter  *bloom.Filter // nil: every newcomer evicts
	hits      uint64
	dropped   uint64
	evictions uint64

	// OnEvictState, when non-nil, receives the State of every evicted
	// entry (if non-nil) just before the entry is reassigned to the
	// newcomer. The Observatory uses it to recycle per-object feature
	// sets, which dominate allocation on eviction-heavy streams. Set it
	// once, right after New.
	OnEvictState func(state any)
}

// New returns a cache monitoring up to capacity keys. halfLife is the
// decay half-life in seconds of the per-object rate estimate; 60 s
// mirrors the Observatory's 1-minute windows. admitter, which may be nil,
// guards evictions: once the cache is full, a key it has not seen before
// registers its first sighting there and is dropped.
func New(capacity int, halfLife float64, admitter *bloom.Filter) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	if halfLife <= 0 {
		halfLife = 60
	}
	return &Cache{
		capacity: capacity,
		halfLife: halfLife,
		entries:  make(map[string]*Entry, capacity),
		min:      make(minHeap, 0, capacity),
		admitter: admitter,
	}
}

// Observe records one occurrence of key at stream time now (seconds, any
// epoch, monotone non-decreasing) and returns the entry monitoring key,
// or nil if the key was not admitted. It is the one body of the observe
// path, for either view of a key. The dominant case — the key is already
// monitored — is a map lookup that materializes no string from a byte
// view, so composite keys built in a reusable buffer (the srcsrv
// resolver>nameserver pair) cost no allocation at steady state, nor does
// a key the admitter refuses. The views differ in one thing, when a key
// enters the cache: a string is kept as it is — the pipeline's string
// keys are texts the summarizer interned, views of them, or constants,
// so keeping one allocates nothing — and bytes are copied into a new
// one.
func Observe[K ~string | ~[]byte](c *Cache, key K, now float64) *Entry {
	c.hits++
	if e, ok := c.entries[string(key)]; ok {
		// Count grows by exactly one, so the heap property can only break
		// towards the children: a single bounded sift-down restores it.
		e.Count++
		c.bumpRate(e, now)
		c.min.down(e.index)
		return e
	}
	if len(c.entries) < c.capacity {
		e := &Entry{Key: string(key), Count: 1, InsertedAt: now, rateAt: now}
		e.Rate = math.Ln2 / c.halfLife // one event, no history
		c.entries[e.Key] = e
		e.index = len(c.min)
		c.min = append(c.min, e)
		c.min.up(e.index)
		return e
	}
	// Full: the newcomer must displace the minimum entry. With an
	// admission filter, a never-before-seen key only registers its first
	// sighting and is dropped.
	if c.admitter != nil && !bloom.Admit(c.admitter, key) {
		c.dropped++
		return nil
	}
	c.evictions++
	e := c.min[0]
	delete(c.entries, e.Key)
	if e.State != nil && c.OnEvictState != nil {
		c.OnEvictState(e.State)
	}
	// Keep (and update) the evicted entry's frequency estimate, per the
	// paper: the newcomer inherits count and rate, but not State.
	e.Key = string(key)
	e.Error = e.Count
	e.Count++
	e.State = nil
	e.InsertedAt = now
	c.bumpRate(e, now)
	c.entries[e.Key] = e
	c.min.down(0)
	return e
}

// Observe is the package's Observe for a string key, which the cache
// keeps if the key enters it.
func (c *Cache) Observe(key string, now float64) *Entry { return Observe(c, key, now) }

// ObserveBytes is the package's Observe for a byte view of the key — a
// slice of a buffer the caller goes on to reuse — which the cache copies
// if the key enters it.
func (c *Cache) ObserveBytes(key []byte, now float64) *Entry { return Observe(c, key, now) }

// bumpRate folds one new observation into the decayed rate estimate.
func (c *Cache) bumpRate(e *Entry, now float64) {
	dt := now - e.rateAt
	if dt < 0 {
		dt = 0
	}
	// Decay the previous estimate, then add the instantaneous
	// contribution of one event smoothed over the half-life.
	decay := math.Exp2(-dt / c.halfLife)
	e.Rate = e.Rate*decay + (1-decay)/math.Max(dt, 1e-9)
	if dt == 0 {
		// Multiple events at the same instant: accumulate linearly at
		// the per-half-life normalization so bursts still register.
		e.Rate += math.Ln2 / c.halfLife
	}
	e.rateAt = now
}

// RateAt returns e's rate estimate decayed to time now. Entry.Rate is
// only updated on Observe, so for objects idle since their last hit it
// overstates current traffic; always read rates through RateAt when
// comparing objects at a common instant (e.g. at window dumps).
func (c *Cache) RateAt(e *Entry, now float64) float64 {
	dt := now - e.rateAt
	if dt <= 0 {
		return e.Rate
	}
	return e.Rate * math.Exp2(-dt/c.halfLife)
}

// Get returns the entry monitoring key, or nil.
func (c *Cache) Get(key string) *Entry {
	return c.entries[key]
}

// Len returns the number of monitored keys.
func (c *Cache) Len() int { return len(c.entries) }

// Capacity returns the maximum number of monitored keys.
func (c *Cache) Capacity() int { return c.capacity }

// Hits returns the total observations, Dropped those rejected by the
// admission filter.
func (c *Cache) Hits() uint64    { return c.hits }
func (c *Cache) Dropped() uint64 { return c.dropped }

// Evictions returns how many times a minimum entry was displaced by a
// new key — the churn a Bloom admitter exists to suppress.
func (c *Cache) Evictions() uint64 { return c.evictions }

// MinCount returns the smallest monitored count — the overestimation
// bound for any reported frequency.
func (c *Cache) MinCount() uint64 {
	if len(c.min) == 0 {
		return 0
	}
	return c.min[0].Count
}

// less is the canonical report order: descending count, ties broken by
// ascending key.
func less(a, b *Entry) bool {
	if a.Count != b.Count {
		return a.Count > b.Count
	}
	return a.Key < b.Key
}

func sortEntries(es []*Entry) {
	slices.SortFunc(es, func(a, b *Entry) int {
		switch {
		case less(a, b):
			return -1
		case less(b, a):
			return 1
		}
		return 0
	})
}

// Top returns up to n entries ordered by descending count (ties broken
// by key). The returned slice is freshly allocated; entries are shared.
// For n much smaller than the cache it runs a partial selection over a
// size-n heap instead of sorting the full entry set.
func (c *Cache) Top(n int) []*Entry {
	if n <= 0 || n >= len(c.entries) {
		all := make([]*Entry, 0, len(c.entries))
		for _, e := range c.entries {
			all = append(all, e)
		}
		sortEntries(all)
		return all
	}
	// Partial selection: a min-heap of the n strongest entries seen so
	// far, keyed by report order so its root is the weakest survivor.
	// Entry.index is NOT touched — the entries stay live in c.min.
	sel := make([]*Entry, 0, n)
	for _, e := range c.entries {
		if len(sel) < n {
			sel = append(sel, e)
			i := len(sel) - 1
			for i > 0 {
				p := (i - 1) / 2
				if !less(sel[p], sel[i]) {
					break
				}
				sel[i], sel[p] = sel[p], sel[i]
				i = p
			}
			continue
		}
		if !less(e, sel[0]) {
			continue // weaker than the weakest survivor
		}
		sel[0] = e
		i := 0
		for {
			l := 2*i + 1
			if l >= n {
				break
			}
			m := l
			if r := l + 1; r < n && less(sel[l], sel[r]) {
				m = r
			}
			if !less(sel[i], sel[m]) {
				break
			}
			sel[i], sel[m] = sel[m], sel[i]
			i = m
		}
	}
	sortEntries(sel)
	return sel
}

// Entries calls fn for every monitored entry in unspecified order.
func (c *Cache) Entries(fn func(*Entry)) {
	for _, e := range c.entries {
		fn(e)
	}
}

// minHeap orders entries by ascending count so the eviction victim is at
// the root. It is a flat index-based binary heap: Observe only ever
// increments a count by one or replaces the root, so the two bounded
// sifts below are all it needs — no container/heap interface calls, no
// interface boxing on the hot path.
type minHeap []*Entry

// up sifts the entry at i towards the root (hole-based: the entry is
// written once at its final slot).
func (h minHeap) up(i int) {
	e := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if h[p].Count <= e.Count {
			break
		}
		h[i] = h[p]
		h[i].index = i
		i = p
	}
	h[i] = e
	e.index = i
}

// down sifts the entry at i towards the leaves.
func (h minHeap) down(i int) {
	n := len(h)
	e := h[i]
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h[r].Count < h[l].Count {
			m = r
		}
		if e.Count <= h[m].Count {
			break
		}
		h[i] = h[m]
		h[i].index = i
		i = m
	}
	h[i] = e
	e.index = i
}
