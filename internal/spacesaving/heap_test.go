package spacesaving

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestOnEvictStateRecycles(t *testing.T) {
	c := New(1, 60, nil)
	var recycled []any
	c.OnEvictState = func(s any) { recycled = append(recycled, s) }
	e := c.Observe("first", 0)
	e.State = "payload"
	e2 := c.Observe("second", 1)
	if e2.State != nil {
		t.Errorf("state leaked across eviction: %v", e2.State)
	}
	if len(recycled) != 1 || recycled[0] != "payload" {
		t.Errorf("recycled = %v", recycled)
	}
	// Entries evicted with nil State do not invoke the hook.
	c.Observe("third", 2)
	if len(recycled) != 1 {
		t.Errorf("hook fired for nil state: %v", recycled)
	}
}

// TestHeapInvariant hammers the flat heap with a churny stream and
// verifies the min-heap property and index bookkeeping after every phase.
func TestHeapInvariant(t *testing.T) {
	c := New(64, 60, nil)
	rng := rand.New(rand.NewSource(13))
	check := func() {
		t.Helper()
		for i := range c.min {
			if c.min[i].index != i {
				t.Fatalf("entry %q stores index %d at slot %d", c.min[i].Key, c.min[i].index, i)
			}
			if l := 2*i + 1; l < len(c.min) && c.min[i].Count > c.min[l].Count {
				t.Fatalf("heap violated at %d/%d: %d > %d", i, l, c.min[i].Count, c.min[l].Count)
			}
			if r := 2*i + 2; r < len(c.min) && c.min[i].Count > c.min[r].Count {
				t.Fatalf("heap violated at %d/%d: %d > %d", i, r, c.min[i].Count, c.min[r].Count)
			}
		}
	}
	for i := 0; i < 20_000; i++ {
		c.Observe(fmt.Sprintf("k%d", rng.Intn(300)), float64(i)/100)
		if i%997 == 0 {
			check()
		}
	}
	check()
	if len(c.min) != c.Len() {
		t.Fatalf("heap len %d != map len %d", len(c.min), c.Len())
	}
}

// TestTopPartialSelectionMatchesFullSort cross-checks the heap-based
// partial selection against a full sort for many n.
func TestTopPartialSelectionMatchesFullSort(t *testing.T) {
	c := New(500, 60, nil)
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 30_000; i++ {
		c.Observe(fmt.Sprintf("k%03d", rng.Intn(400)), float64(i)/100)
	}
	full := c.Top(0)
	for _, n := range []int{1, 2, 3, 10, 50, 399, 400, 1000} {
		got := c.Top(n)
		want := full
		if n < len(full) {
			want = full[:n]
		}
		if len(got) != len(want) {
			t.Fatalf("Top(%d) len = %d, want %d", n, len(got), len(want))
		}
		for i := range want {
			if got[i].Key != want[i].Key {
				t.Fatalf("Top(%d)[%d] = %s, want %s", n, i, got[i].Key, want[i].Key)
			}
		}
	}
}
