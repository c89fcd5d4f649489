package sketch

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Quantiles always lie within [min, max] and are monotone in q.
func TestQuantileBoundsQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	f := func(n uint16) bool {
		h := NewHistogram(1e6, 1.2)
		count := int(n)%500 + 1
		lo, hi := 1e18, -1e18
		for i := 0; i < count; i++ {
			v := rng.Float64() * 1e5
			h.Observe(v)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		prev := -1e18
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1} {
			v := h.Quantile(q)
			if v < lo-1e-9 || v > hi+1e-9 || v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// The TopValues total always equals the number of observations and the
// share of any reported value never exceeds 1.
func TestTopValuesInvariantsQuick(t *testing.T) {
	tv := NewTopValues(8)
	var observed uint64
	f := func(v uint16) bool {
		tv.Observe(uint32(v) % 64)
		observed++
		if tv.Total() != observed {
			return false
		}
		for _, vc := range tv.Top(3) {
			if vc.Share < 0 || vc.Share > 1 || vc.Count > tv.Total() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
