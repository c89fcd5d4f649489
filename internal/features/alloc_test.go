package features

import (
	"fmt"
	"testing"

	"dnsobservatory/internal/dnswire"
	"dnsobservatory/internal/sie"
)

// TestAllocBudgets pins the heap traffic of a feature set's life: two
// allocations to build one (the slab and the histogram counts), none to
// fold a transaction once the sparse sketches hold its values, none to
// write a snapshot row into an arena with room for it.
func TestAllocBudgets(t *testing.T) {
	var keep *Set
	if got := testing.AllocsPerRun(100, func() { keep = NewSet(Config{}) }); got > 2 {
		t.Errorf("NewSet: %.1f allocs, budget 2", got)
	}

	sums := make([]*sie.Summary, 8)
	for i := range sums {
		sums[i] = okSummary(fmt.Sprintf("host%d.example.com.", i), dnswire.TypeA)
		sums[i].AuthorityNS, sums[i].NSTTLs = 1, []uint32{86400}
		sums[i].HasSOA, sums[i].SOAMinimum = true, 60
		sums[i].PrecomputeHashes(nil)
	}
	s := keep
	observeAll := func() {
		for _, sum := range sums {
			s.Observe(sum)
		}
	}
	observeAll() // the sketches grow to hold the eight values
	if got := testing.AllocsPerRun(100, observeAll); got != 0 {
		t.Errorf("Observe, steady state: %.1f allocs per %d summaries, want 0", got, len(sums))
	}

	arena := make([]float64, 0, 4*len(Columns))
	if got := testing.AllocsPerRun(100, func() {
		arena = s.AppendValues(arena[:0], 1.5)
		arena = s.AppendValues(arena, 2.5)
	}); got != 0 {
		t.Errorf("AppendValues into a pre-sized arena: %.1f allocs, want 0", got)
	}
	if want := s.Values(2.5); fmt.Sprint(arena[len(Columns):]) != fmt.Sprint(want) {
		t.Errorf("AppendValues row differs from Values:\n got %v\nwant %v", arena[len(Columns):], want)
	}
}
