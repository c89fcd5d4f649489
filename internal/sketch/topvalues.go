package sketch

// MaxTracked is the most distinct values one TopValues can hold: its
// table is a fixed inline array, so a tracker is a single flat object
// with no per-value heap state.
const MaxTracked = 32

// TopValues tracks the distribution of a (typically low-cardinality)
// discrete value such as a record TTL, and reports the most frequent
// values with their shares. The paper stores "the top-3 TTL values (and
// distributions)" per object (§2.3).
//
// To bound memory against adversarial high-cardinality inputs (e.g.
// nameservers serving a different TTL on every response, the
// "non-conforming" class of Table 4), at most maxTracked distinct values
// are held — the first ones seen; further new values are lumped into an
// "other" count. The zero value is not usable; create one with
// NewTopValues or Init.
type TopValues struct {
	vals       [MaxTracked]uint32 // tracked values, in order of first sight
	counts     [MaxTracked]uint64
	n          int // tracked values in use
	maxTracked int
	other      uint64
	total      uint64
}

// NewTopValues returns a tracker holding up to maxTracked distinct values.
func NewTopValues(maxTracked int) *TopValues {
	t := new(TopValues)
	t.Init(maxTracked)
	return t
}

// Init makes t an empty tracker holding up to maxTracked distinct
// values, at most MaxTracked.
func (t *TopValues) Init(maxTracked int) {
	if maxTracked < 1 {
		maxTracked = 16
	}
	*t = TopValues{maxTracked: min(maxTracked, MaxTracked)}
}

// Observe records one occurrence of v, admitting v while the table has
// room and lumping it into "other" once it is full.
func (t *TopValues) Observe(v uint32) {
	t.total++
	for i, tracked := range t.vals[:t.n] {
		if tracked == v {
			t.counts[i]++
			return
		}
	}
	if t.n >= t.maxTracked {
		t.other++
		return
	}
	t.vals[t.n], t.counts[t.n] = v, 1
	t.n++
}

// ValueCount is one entry of a Top report.
type ValueCount struct {
	Value uint32
	Count uint64
	Share float64 // fraction of all observations
}

// Top returns the n most frequent values, most frequent first. Ties are
// broken by smaller value for determinism.
func (t *TopValues) Top(n int) []ValueCount {
	return t.TopInto(make([]ValueCount, min(max(n, 0), t.n)))
}

// TopInto is Top(len(buf)) written into buf: it returns the filled
// prefix and does not allocate. It selects by insertion into buf
// instead of sorting the whole table.
func (t *TopValues) TopInto(buf []ValueCount) []ValueCount {
	k := 0
	for i, v := range t.vals[:t.n] {
		vc := ValueCount{Value: v, Count: t.counts[i], Share: float64(t.counts[i]) / float64(t.total)}
		j := k // vc's rank among the k entries selected so far
		for j > 0 && (vc.Count > buf[j-1].Count || vc.Count == buf[j-1].Count && vc.Value < buf[j-1].Value) {
			j--
		}
		if j == len(buf) {
			continue
		}
		k = min(k+1, len(buf))
		copy(buf[j+1:k], buf[j:])
		buf[j] = vc
	}
	return buf[:k]
}

// Mode returns the single most frequent value and its share; ok is false
// when nothing was observed.
func (t *TopValues) Mode() (v uint32, share float64, ok bool) {
	var buf [1]ValueCount
	if top := t.TopInto(buf[:]); len(top) == 1 {
		return top[0].Value, top[0].Share, true
	}
	return 0, 0, false
}

// Distinct returns the number of tracked distinct values (capped at the
// tracker size).
func (t *TopValues) Distinct() int { return t.n }

// Total returns the number of observations.
func (t *TopValues) Total() uint64 { return t.total }

// Reset clears the tracker for the next time window.
func (t *TopValues) Reset() { t.n, t.other, t.total = 0, 0, 0 }
