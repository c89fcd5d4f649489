package sketch

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// refTopValues is TopValues as it was when it counted in a map; the
// inline-array form must report exactly what it reports.
type refTopValues struct {
	counts     map[uint32]uint64
	other      uint64
	total      uint64
	maxTracked int
}

func newRefTopValues(maxTracked int) *refTopValues {
	if maxTracked < 1 {
		maxTracked = 16
	}
	return &refTopValues{counts: make(map[uint32]uint64), maxTracked: maxTracked}
}

func (t *refTopValues) Observe(v uint32) {
	t.total++
	if _, ok := t.counts[v]; !ok && len(t.counts) >= t.maxTracked {
		t.other++
		return
	}
	t.counts[v]++
}

func (t *refTopValues) Top(n int) []ValueCount {
	vcs := make([]ValueCount, 0, len(t.counts))
	for v, c := range t.counts {
		vcs = append(vcs, ValueCount{Value: v, Count: c})
	}
	sort.Slice(vcs, func(i, j int) bool {
		if vcs[i].Count != vcs[j].Count {
			return vcs[i].Count > vcs[j].Count
		}
		return vcs[i].Value < vcs[j].Value
	})
	if n < len(vcs) {
		vcs = vcs[:n]
	}
	for i := range vcs {
		if t.total > 0 {
			vcs[i].Share = float64(vcs[i].Count) / float64(t.total)
		}
	}
	return vcs
}

func (t *refTopValues) Mode() (uint32, float64, bool) {
	top := t.Top(1)
	if len(top) == 0 {
		return 0, 0, false
	}
	return top[0].Value, top[0].Share, true
}

// sameReport compares everything a TopValues exposes against the
// reference, at every n a caller could ask for.
func sameReport(t *testing.T, ctx string, got *TopValues, want *refTopValues) {
	t.Helper()
	if got.Total() != want.total || got.Distinct() != len(want.counts) || got.other != want.other {
		t.Fatalf("%s: total/distinct/other = %d/%d/%d, reference %d/%d/%d", ctx,
			got.Total(), got.Distinct(), got.other, want.total, len(want.counts), want.other)
	}
	for _, n := range []int{0, 1, 3, want.maxTracked, want.maxTracked + 5} {
		g, w := got.Top(n), want.Top(n)
		if len(g) == 0 && len(w) == 0 {
			continue
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: Top(%d) = %v, reference %v", ctx, n, g, w)
		}
	}
	gv, gs, gok := got.Mode()
	wv, ws, wok := want.Mode()
	if gv != wv || gs != ws || gok != wok {
		t.Fatalf("%s: Mode = %d %g %v, reference %d %g %v", ctx, gv, gs, gok, wv, ws, wok)
	}
}

// TestTopValuesMatchesMapForm drives the array form and the map form
// with the same random streams — skewed, uniform, and with more distinct
// values than the tracker holds.
func TestTopValuesMatchesMapForm(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 300; trial++ {
		maxTracked := []int{1, 4, 8, MaxTracked}[trial%4]
		universe := []int{1, 3, maxTracked, 2 * maxTracked, 5 * maxTracked}[rng.Intn(5)]
		a, ra := NewTopValues(maxTracked), newRefTopValues(maxTracked)
		for i, n := 0, rng.Intn(400); i < n; i++ {
			v := uint32(rng.Intn(universe))
			if rng.Intn(3) == 0 {
				v = uint32(rng.Intn(1 + universe/4)) // a heavy head, so counts tie and differ
			}
			a.Observe(v)
			ra.Observe(v)
		}
		sameReport(t, "stream", a, ra)
		a.Reset()
		sameReport(t, "reset", a, newRefTopValues(maxTracked))
	}
}

// TestTopValuesCapsAtMaxTracked: a request beyond the inline table is
// clamped, not honoured by growing.
func TestTopValuesCapsAtMaxTracked(t *testing.T) {
	tv := NewTopValues(10 * MaxTracked)
	for v := uint32(0); v < 3*MaxTracked; v++ {
		tv.Observe(v)
	}
	if tv.Distinct() != MaxTracked || tv.Total() != 3*MaxTracked {
		t.Errorf("distinct %d total %d, want %d %d", tv.Distinct(), tv.Total(), MaxTracked, 3*MaxTracked)
	}
}
