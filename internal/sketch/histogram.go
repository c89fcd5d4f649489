package sketch

import (
	"math"
	"sync"
)

// Histogram is a log-scale bucketed histogram of non-negative values.
// Buckets grow geometrically, so quantiles keep constant relative error
// (about half the growth factor) over the full range. The zero value is
// not usable; create one with NewHistogram or InitHistograms.
type Histogram struct {
	bounds []float64 // upper bound of each bucket, ascending; shared, read-only
	counts []uint64
	// Every non-zero count lies in counts[lo:hi], so the quantile scan and
	// Reset cost what the window observed, not the bucket count.
	lo, hi int32
	n      uint64
	sum    float64
	min    float64
	max    float64
}

// boundsMemo holds one immutable bounds slice per (max, growth): every
// histogram of a shape shares it, so a feature set pays for its counts
// only.
var boundsMemo struct {
	sync.Mutex
	m map[[2]float64][]float64
}

// bucketBounds returns the shared bucket bounds for the (normalized)
// shape, deriving them on first use.
func bucketBounds(maxValue, growth float64) []float64 {
	if growth <= 1.01 {
		growth = 1.2
	}
	if maxValue <= 1 {
		maxValue = 1
	}
	key := [2]float64{maxValue, growth}
	boundsMemo.Lock()
	defer boundsMemo.Unlock()
	bounds, ok := boundsMemo.m[key]
	if !ok {
		for b := 1.0; b < maxValue*growth; b *= growth {
			bounds = append(bounds, b)
		}
		bounds = append(bounds, math.Inf(1))
		if boundsMemo.m == nil {
			boundsMemo.m = make(map[[2]float64][]float64)
		}
		boundsMemo.m[key] = bounds
	}
	return bounds
}

// NewHistogram returns a histogram covering (0, max] with the given
// growth factor (e.g. 1.2 gives ~10 % relative quantile error). Values
// above max land in the final overflow bucket; zero and negatives count
// into the first bucket.
func NewHistogram(maxValue, growth float64) *Histogram {
	hs := new([1]Histogram)
	InitHistograms(hs[:], growth, maxValue)
	return &hs[0]
}

// InitHistograms makes hs[i] an empty histogram covering
// (0, maxValues[i]], as NewHistogram would, with the counts of all of
// them in one allocation — for owners that embed several histograms.
func InitHistograms(hs []Histogram, growth float64, maxValues ...float64) {
	words := 0
	for i, maxValue := range maxValues {
		hs[i] = Histogram{bounds: bucketBounds(maxValue, growth)}
		words += len(hs[i].bounds)
	}
	counts := make([]uint64, words)
	for i := range maxValues {
		n := len(hs[i].bounds)
		hs[i].counts, counts = counts[:n:n], counts[n:]
		hs[i].Reset()
	}
}

// Bucket returns the index of the bucket v counts into: the first whose
// bound is >= v, as sort.SearchFloat64s finds it, without the closure
// call per probe. NaN compares false with every bound and so runs off
// the end, into the overflow bucket.
func (h *Histogram) Bucket(v float64) int {
	i, j := 0, len(h.bounds)
	for i < j {
		mid := int(uint(i+j) >> 1)
		if h.bounds[mid] >= v {
			j = mid
		} else {
			i = mid + 1
		}
	}
	return min(i, len(h.bounds)-1)
}

// Observe records one value.
func (h *Histogram) Observe(v float64) { h.ObserveAt(v, -1) }

// ObserveAt records one value whose bucket the caller may already know
// (Bucket, of this histogram or one of the same shape). The hint is
// checked, not trusted: it is taken only if it is the bucket a search
// would find — bounded below v by its predecessor, at or above v itself
// — and anything else, out of range or another shape's, costs the
// search and changes nothing.
func (h *Histogram) ObserveAt(v float64, hint int) {
	if uint(hint) >= uint(len(h.bounds)) || !(h.bounds[hint] >= v) || hint > 0 && !(h.bounds[hint-1] < v) {
		hint = h.Bucket(v)
	}
	idx := int32(hint)
	h.counts[idx]++
	if idx < h.lo {
		h.lo = idx
	}
	if idx >= h.hi {
		h.hi = idx + 1
	}
	h.n++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// N returns the number of observations.
func (h *Histogram) N() uint64 { return h.n }

// Mean returns the arithmetic mean of observations, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Min returns the smallest observed value, or 0 when empty.
func (h *Histogram) Min() float64 {
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observed value, or 0 when empty.
func (h *Histogram) Max() float64 {
	if h.n == 0 {
		return 0
	}
	return h.max
}

// Quantile returns an estimate of the q-quantile (0 <= q <= 1), linearly
// interpolated within the containing bucket. Empty histograms yield 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	var out [1]float64
	h.quantiles([]float64{q}, out[:])
	return out[0]
}

// Quartiles returns the 25th, 50th and 75th percentiles, the form the
// paper stores for resp_delays, network_hops and resp_size.
func (h *Histogram) Quartiles() (q25, q50, q75 float64) {
	if h.n == 0 {
		return 0, 0, 0
	}
	var out [3]float64
	h.quantiles([]float64{0.25, 0.5, 0.75}, out[:])
	return out[0], out[1], out[2]
}

// quantiles sets out[i] to the qs[i]-quantile of a non-empty histogram,
// for ascending qs inside (0, 1), in one pass over the occupied buckets:
// the targets ascend with qs, so each is met at or after the bucket that
// met the one before, by the same running count.
func (h *Histogram) quantiles(qs, out []float64) {
	t := 0
	target := qs[0] * float64(h.n)
	var cum float64
	for i := int(h.lo); i < int(h.hi); i++ {
		c := h.counts[i]
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		for next >= target {
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
			out[t] = lo + (hi-lo)*frac
			if t++; t == len(qs) {
				return
			}
			target = qs[t] * float64(h.n)
		}
		cum = next
	}
	for ; t < len(qs); t++ {
		out[t] = h.max
	}
}

// Reset clears the histogram for the next time window.
func (h *Histogram) Reset() {
	if h.lo < h.hi {
		clear(h.counts[h.lo:h.hi])
	}
	h.lo, h.hi = int32(len(h.counts)), 0
	h.n = 0
	h.sum = 0
	h.min = math.Inf(1)
	h.max = math.Inf(-1)
}
