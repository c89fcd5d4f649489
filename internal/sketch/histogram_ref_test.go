package sketch

import (
	"encoding/binary"
	"math"
	"reflect"
	"sort"
	"testing"
)

// refHistogram is the histogram as it was before ISSUE 18, frozen as
// the reference for the inlined bucket search, the occupied-range
// bookkeeping and the one-pass quartiles: sort.SearchFloat64s per
// observation, a scan from bucket 0 per quantile, a full clear per
// reset.
type refHistogram struct {
	bounds   []float64
	counts   []uint64
	n        uint64
	sum      float64
	min, max float64
}

func newRefHistogram(maxValue, growth float64) *refHistogram {
	h := &refHistogram{bounds: bucketBounds(maxValue, growth)}
	h.counts = make([]uint64, len(h.bounds))
	h.reset()
	return h
}

func (h *refHistogram) observe(v float64) {
	idx := sort.SearchFloat64s(h.bounds, v)
	if idx == len(h.bounds) {
		idx--
	}
	h.counts[idx]++
	h.n++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

func (h *refHistogram) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		next := cum + float64(c)
		if next >= target && c > 0 {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			if math.IsInf(hi, 1) {
				hi = h.max
			}
			if hi > h.max {
				hi = h.max
			}
			if lo < h.min {
				lo = h.min
			}
			if hi < lo {
				hi = lo
			}
			frac := (target - cum) / float64(c)
			return lo + (hi-lo)*frac
		}
		cum = next
	}
	return h.max
}

func (h *refHistogram) reset() {
	clear(h.counts)
	h.n = 0
	h.sum = 0
	h.min = math.Inf(1)
	h.max = math.Inf(-1)
}

// sameAsRef compares everything a histogram reports, and its buckets,
// with the reference's, bit for bit (any NaN equals any NaN: the sum of
// a histogram that observed one).
func sameAsRef(t *testing.T, what string, h *Histogram, ref *refHistogram) {
	t.Helper()
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
	}
	if !reflect.DeepEqual(h.counts, ref.counts) {
		t.Fatalf("%s: buckets %v, reference %v", what, h.counts, ref.counts)
	}
	for i, c := range h.counts {
		if c != 0 && (i < int(h.lo) || i >= int(h.hi)) {
			t.Fatalf("%s: bucket %d is occupied outside the tracked range [%d, %d)", what, i, h.lo, h.hi)
		}
	}
	if h.n != ref.n || !same(h.sum, ref.sum) || !same(h.min, ref.min) || !same(h.max, ref.max) {
		t.Fatalf("%s: n/sum/min/max %d/%v/%v/%v, reference %d/%v/%v/%v", what,
			h.n, h.sum, h.min, h.max, ref.n, ref.sum, ref.min, ref.max)
	}
	q25, q50, q75 := h.Quartiles()
	for i, q := range []float64{0.25, 0.5, 0.75} {
		got, want := [3]float64{q25, q50, q75}[i], ref.quantile(q)
		if !same(got, want) {
			t.Fatalf("%s: Quartiles()[%d] = %v, the reference's Quantile(%v) = %v", what, i, got, q, want)
		}
	}
	for _, q := range []float64{-1, 0, 0.01, 0.5, 0.9, 0.999, 1, 2, math.NaN()} {
		if got, want := h.Quantile(q), ref.quantile(q); !same(got, want) {
			t.Fatalf("%s: Quantile(%v) = %v, reference %v", what, q, got, want)
		}
	}
}

// FuzzQuartilesMatchQuantile drives two histograms and their frozen
// twins through arbitrary observations (zero, negatives, values past
// the last bound, infinities and NaN among them) and resets followed by
// reuse, comparing after every step.
func FuzzQuartilesMatchQuantile(f *testing.F) {
	seed := func(ops ...float64) []byte {
		var b []byte
		for _, op := range ops {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(op))
		}
		return b
	}
	// The low mantissa bits of each float pick what is done with it.
	f.Add(seed(0, -3, 1, 17.5, 64, 1e9, math.Inf(1), math.Inf(-1), math.NaN()))
	f.Add(seed(5, 5, 5, 5, 900, 901, 0.5))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := NewHistogram(1000, 1.15), NewHistogram(1000, 1.15)
		ra, rb := newRefHistogram(1000, 1.15), newRefHistogram(1000, 1.15)
		for ; len(data) >= 8; data = data[8:] {
			bits := binary.LittleEndian.Uint64(data)
			v := math.Float64frombits(bits)
			switch {
			case bits&3 == 1: // observe into the second histogram
				b.Observe(v)
				rb.observe(v)
			case bits&31 == 18:
				a.Reset()
				ra.reset()
			case bits&31 == 10:
				b.Reset()
				rb.reset()
			default:
				a.Observe(v)
				ra.observe(v)
			}
			sameAsRef(t, "a", a, ra)
			sameAsRef(t, "b", b, rb)
		}
	})
}

// FuzzBucketHintMatchesSearch: whatever hint comes with a value, the
// histogram holds what the frozen Observe, which knows no hints, holds.
// Each 16 bytes are a value (zero of either sign, negatives, exact
// bounds, values past the last one, infinities and NaN among them) and
// the hint it arrives with: the right bucket, a neighbour, one of a
// histogram of another shape, anything out of range.
func FuzzBucketHintMatchesSearch(f *testing.F) {
	seed := func(ops ...float64) []byte {
		var b []byte
		for _, op := range ops {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(op))
		}
		return b
	}
	bounds := bucketBounds(1000, 1.15)
	negZero := math.Copysign(0, -1)
	// Value, then the hint's bits: the low three say how it is derived.
	f.Add(seed(0, 0, negZero, 1, -3, 2, 1, 3, 17.5, 4, 64, 5, 1e9, 6, math.Inf(1), 7, math.Inf(-1), 0, math.NaN(), 0, math.NaN(), 5))
	f.Add(seed(bounds[0], 0, bounds[1], 1, bounds[1], 2, bounds[7], 3, bounds[len(bounds)-2], 0, bounds[len(bounds)-2], 4, 1001, 0))
	f.Add(seed(5, 5e-324, 5, -1, 900, 1e300, 901, math.NaN()))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, ref := NewHistogram(1000, 1.15), newRefHistogram(1000, 1.15)
		other := NewHistogram(60_000, 1.2) // another shape's buckets
		for ; len(data) >= 16; data = data[16:] {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data))
			bits := binary.LittleEndian.Uint64(data[8:])
			var hint int
			switch bits & 7 {
			case 0:
				hint = h.Bucket(v)
			case 1:
				hint = h.Bucket(v) - 1
			case 2:
				hint = h.Bucket(v) + 1
			case 3:
				hint = other.Bucket(v)
			case 4:
				hint = len(h.bounds) - 1
			case 5:
				hint = len(h.bounds)
			case 6:
				hint = int(bits >> 3 % uint64(len(h.bounds)))
			default:
				hint = int(int64(bits)) >> 3 // anything, negative half the time
			}
			h.ObserveAt(v, hint)
			ref.observe(v)
			sameAsRef(t, "hinted", h, ref)
		}
	})
}

// TestHistogramMatchesReference runs the fuzzer's comparison over a
// seeded stream long enough to fill and reuse every bucket.
func TestHistogramMatchesReference(t *testing.T) {
	a, b := NewHistogram(60_000, 1.15), NewHistogram(60_000, 1.15)
	ra, rb := newRefHistogram(60_000, 1.15), newRefHistogram(60_000, 1.15)
	x := uint64(18)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	odd := []float64{0, -1, math.Inf(1), math.Inf(-1), math.NaN(), 1, 60_000, 60_001, 1e300, 5e-324}
	for i := 0; i < 20_000; i++ {
		r := next()
		v := math.Exp(float64(r%12_000) / 1000) // log-uniform over [1, 160 k)
		if r%97 == 0 {
			v = odd[next()%uint64(len(odd))]
		}
		switch {
		case r%3 == 0:
			b.Observe(v)
			rb.observe(v)
		case r%2003 == 2:
			a.Reset()
			ra.reset()
		case r%503 == 4:
			b.Reset()
			rb.reset()
		default:
			a.Observe(v)
			ra.observe(v)
		}
		if i%7 == 0 {
			sameAsRef(t, "a", a, ra)
			sameAsRef(t, "b", b, rb)
		}
	}
}

// TestHistogramResetClearsOnlyRange: a reset histogram equals a fresh
// one wherever its observations lay — the first bucket, the overflow
// bucket or both — and a count planted outside the tracked range
// survives the reset, which is how a test can see that the reset did
// not sweep all the buckets.
func TestHistogramResetClearsOnlyRange(t *testing.T) {
	fresh := NewHistogram(1000, 1.15)
	last := len(fresh.counts) - 1
	for name, fill := range map[string]func(h *Histogram){
		"first bucket":    func(h *Histogram) { h.Observe(0); h.Observe(-5); h.Observe(1) },
		"overflow bucket": func(h *Histogram) { h.Observe(1e9); h.Observe(math.Inf(1)) },
		"both ends":       func(h *Histogram) { h.Observe(0); h.Observe(1e9) },
		"nothing":         func(h *Histogram) {},
	} {
		h := NewHistogram(1000, 1.15)
		fill(h)
		h.Reset()
		if !reflect.DeepEqual(h, fresh) {
			t.Errorf("%s: after Reset %+v, a fresh histogram is %+v", name, h, fresh)
		}
		fill(h)
		again := NewHistogram(1000, 1.15)
		fill(again)
		if !reflect.DeepEqual(h, again) {
			t.Errorf("%s: a reused histogram holds %+v, a fresh one %+v", name, h, again)
		}
	}

	h := NewHistogram(1000, 1.15)
	h.Observe(20)
	h.Observe(30)
	h.counts[0], h.counts[last] = 7, 7 // outside [lo, hi)
	h.Reset()
	if h.counts[0] != 7 || h.counts[last] != 7 {
		t.Errorf("Reset cleared buckets outside the occupied range: %d, %d", h.counts[0], h.counts[last])
	}
	h.counts[0], h.counts[last] = 0, 0
	if !reflect.DeepEqual(h, fresh) {
		t.Errorf("inside the range Reset left %+v", h)
	}
}
