package sketch

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(1000, 1.2)
	if h.N() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Error("empty histogram not all-zero")
	}
}

func TestHistogramSingle(t *testing.T) {
	h := NewHistogram(1000, 1.2)
	h.Observe(42)
	if h.N() != 1 {
		t.Errorf("n = %d", h.N())
	}
	if h.Mean() != 42 {
		t.Errorf("mean = %f", h.Mean())
	}
	q := h.Quantile(0.5)
	if q < 35 || q > 50 {
		t.Errorf("median = %f, want ~42", q)
	}
	if h.Min() != 42 || h.Max() != 42 {
		t.Errorf("min/max = %f/%f", h.Min(), h.Max())
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := NewHistogram(1e6, 1.1)
	var exact []float64
	for i := 0; i < 50000; i++ {
		// Log-uniform values, like response delays.
		v := math.Exp(rng.Float64() * math.Log(1e5))
		exact = append(exact, v)
		h.Observe(v)
	}
	sort.Float64s(exact)
	for _, q := range []float64{0.25, 0.5, 0.75, 0.9, 0.99} {
		want := exact[int(q*float64(len(exact)))]
		got := h.Quantile(q)
		relErr := math.Abs(got-want) / want
		if relErr > 0.12 {
			t.Errorf("q%.2f: got %.1f want %.1f (rel err %.3f)", q, got, want, relErr)
		}
	}
}

func TestHistogramQuartiles(t *testing.T) {
	h := NewHistogram(1000, 1.05)
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	q25, q50, q75 := h.Quartiles()
	if math.Abs(q25-250) > 30 || math.Abs(q50-500) > 40 || math.Abs(q75-750) > 50 {
		t.Errorf("quartiles = %.0f %.0f %.0f", q25, q50, q75)
	}
	if !(q25 <= q50 && q50 <= q75) {
		t.Error("quartiles not monotone")
	}
}

func TestHistogramQuantileBounds(t *testing.T) {
	h := NewHistogram(100, 1.2)
	for _, v := range []float64{3, 7, 11, 90} {
		h.Observe(v)
	}
	if got := h.Quantile(0); got != 3 {
		t.Errorf("q0 = %f", got)
	}
	if got := h.Quantile(1); got != 90 {
		t.Errorf("q1 = %f", got)
	}
	for _, q := range []float64{0.1, 0.5, 0.9} {
		v := h.Quantile(q)
		if v < 3 || v > 90 {
			t.Errorf("q%.1f = %f out of observed range", q, v)
		}
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := NewHistogram(100, 1.2)
	h.Observe(1e9) // way past max
	if h.N() != 1 {
		t.Fatal("overflow not counted")
	}
	if got := h.Quantile(0.5); got != 1e9 {
		t.Errorf("median of single overflow = %f", got)
	}
}

func TestHistogramZeroAndNegative(t *testing.T) {
	h := NewHistogram(100, 1.2)
	h.Observe(0)
	h.Observe(-5)
	if h.N() != 2 {
		t.Error("zero/negative not counted")
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram(100, 1.2)
	h.Observe(5)
	h.Reset()
	if h.N() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Error("reset incomplete")
	}
	h.Observe(9)
	if h.N() != 1 || h.Mean() != 9 {
		t.Error("histogram unusable after reset")
	}
}

func TestHistogramDegenerateParams(t *testing.T) {
	h := NewHistogram(0, 1.0)
	h.Observe(10)
	if h.N() != 1 {
		t.Error("degenerate histogram unusable")
	}
}

func TestTopValuesBasic(t *testing.T) {
	tv := NewTopValues(16)
	for i := 0; i < 70; i++ {
		tv.Observe(300)
	}
	for i := 0; i < 20; i++ {
		tv.Observe(60)
	}
	for i := 0; i < 10; i++ {
		tv.Observe(86400)
	}
	top := tv.Top(3)
	if len(top) != 3 {
		t.Fatalf("top len %d", len(top))
	}
	if top[0].Value != 300 || top[1].Value != 60 || top[2].Value != 86400 {
		t.Errorf("order: %+v", top)
	}
	if math.Abs(top[0].Share-0.7) > 1e-9 {
		t.Errorf("share = %f", top[0].Share)
	}
	v, share, ok := tv.Mode()
	if !ok || v != 300 || math.Abs(share-0.7) > 1e-9 {
		t.Errorf("mode = %d %f %v", v, share, ok)
	}
}

func TestTopValuesEmpty(t *testing.T) {
	tv := NewTopValues(4)
	if _, _, ok := tv.Mode(); ok {
		t.Error("mode on empty")
	}
	if len(tv.Top(3)) != 0 {
		t.Error("top on empty")
	}
}

func TestTopValuesTieBreak(t *testing.T) {
	tv := NewTopValues(8)
	tv.Observe(500)
	tv.Observe(100)
	top := tv.Top(2)
	if top[0].Value != 100 || top[1].Value != 500 {
		t.Errorf("tie order: %+v", top)
	}
}

func TestTopValuesCap(t *testing.T) {
	tv := NewTopValues(4)
	for v := uint32(0); v < 100; v++ {
		tv.Observe(v)
	}
	if tv.Distinct() != 4 {
		t.Errorf("distinct = %d, want capped 4", tv.Distinct())
	}
	if tv.Total() != 100 {
		t.Errorf("total = %d", tv.Total())
	}
}

func TestTopValuesReset(t *testing.T) {
	tv := NewTopValues(4)
	tv.Observe(9)
	tv.Reset()
	if tv.Total() != 0 || tv.Distinct() != 0 {
		t.Error("reset incomplete")
	}
}

// Histograms of one shape share a single immutable bounds slice, and
// sharing it never couples their contents.
func TestHistogramSharesBounds(t *testing.T) {
	a, b := NewHistogram(60_000, 1.15), NewHistogram(60_000, 1.15)
	if &a.bounds[0] != &b.bounds[0] {
		t.Fatal("same-shape histograms hold separate bounds")
	}
	if c := NewHistogram(65_536, 1.15); &c.bounds[0] == &a.bounds[0] || len(c.bounds) == 0 {
		t.Fatal("different shapes share bounds")
	}
	if &a.counts[0] == &b.counts[0] {
		t.Fatal("histograms share counts")
	}
	for _, v := range []float64{3, 40, 40, 900} {
		b.Observe(v)
	}
	q25, q50, q75 := b.Quartiles()
	for i := 0; i < 1000; i++ {
		a.Observe(float64(i * 17 % 50_000))
	}
	a.Reset()
	a.Observe(7)
	if g25, g50, g75 := b.Quartiles(); g25 != q25 || g50 != q50 || g75 != q75 || b.N() != 4 {
		t.Errorf("b changed under a's Observe/Reset: %v %v %v (n=%d), was %v %v %v", g25, g50, g75, b.N(), q25, q50, q75)
	}
	if a.N() != 1 || a.Quantile(0.5) != 7 {
		t.Errorf("a after Reset+Observe: n=%d q50=%v", a.N(), a.Quantile(0.5))
	}

	// InitHistograms carves consecutive histograms out of one counts slice.
	var hs [2]Histogram
	InitHistograms(hs[:], 1.15, 64, 60_000)
	if &hs[0].bounds[0] == &hs[1].bounds[0] || &hs[1].bounds[0] != &a.bounds[0] {
		t.Error("embedded histograms do not share the memoized bounds")
	}
	hs[0].Observe(1e9) // overflow bucket: the last word of hs[0]'s share
	if hs[1].N() != 0 || hs[1].counts[0] != 0 || cap(hs[0].counts) != len(hs[0].bounds) {
		t.Error("carved histograms overlap")
	}
}
