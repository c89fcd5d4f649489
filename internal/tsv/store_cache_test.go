package tsv

import (
	"testing"
)

func minuteSnap(agg string, start int64) *Snapshot {
	return &Snapshot{
		Aggregation: agg, Level: Minutely, Start: start,
		Columns: []string{"hits"}, Kinds: []Kind{Counter},
		Rows:    []Row{{Key: "k", Values: []float64{1}}},
		Windows: 1,
	}
}

func TestListCacheHitsAndInvalidation(t *testing.T) {
	bothBackends(t, func(t *testing.T, st *Store) {
		if err := st.Put(minuteSnap("a", 0)); err != nil {
			t.Fatal(err)
		}
		// First List scans the directory; the second is served from cache.
		if _, err := st.List("a", Minutely); err != nil {
			t.Fatal(err)
		}
		misses := st.ListCacheMisses()
		if misses == 0 {
			t.Fatal("first List did not scan")
		}
		if _, err := st.List("a", Minutely); err != nil {
			t.Fatal(err)
		}
		if st.ListCacheMisses() != misses {
			t.Fatal("second List scanned again")
		}
		if st.ListCacheHits() == 0 {
			t.Fatal("second List not counted as a hit")
		}

		// Put must be visible through the cache immediately.
		if err := st.Put(minuteSnap("a", 120)); err != nil {
			t.Fatal(err)
		}
		if err := st.Put(minuteSnap("a", 60)); err != nil {
			t.Fatal(err)
		}
		starts, err := st.List("a", Minutely)
		if err != nil {
			t.Fatal(err)
		}
		if len(starts) != 3 || starts[0] != 0 || starts[1] != 60 || starts[2] != 120 {
			t.Fatalf("starts after Put = %v", starts)
		}
		if st.ListCacheMisses() != misses {
			t.Fatal("Put invalidated the cache instead of updating it")
		}

		// A new aggregation put after the scan must also appear.
		if err := st.Put(minuteSnap("b", 0)); err != nil {
			t.Fatal(err)
		}
		starts, err = st.List("b", Minutely)
		if err != nil {
			t.Fatal(err)
		}
		if len(starts) != 1 {
			t.Fatalf("new agg starts = %v", starts)
		}
	})
}

func TestListCacheCopySemantics(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(minuteSnap("a", 0)); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(minuteSnap("a", 60)); err != nil {
		t.Fatal(err)
	}
	first, err := st.List("a", Minutely)
	if err != nil {
		t.Fatal(err)
	}
	first[0] = 9999 // mutate the returned slice
	second, err := st.List("a", Minutely)
	if err != nil {
		t.Fatal(err)
	}
	if second[0] != 0 {
		t.Fatalf("caller mutation leaked into the cache: %v", second)
	}
}

func TestRetentionInvalidatesListCache(t *testing.T) {
	bothBackends(t, func(t *testing.T, st *Store) {
		st.Retain[Minutely] = 2
		for i := int64(0); i < 5; i++ {
			if err := st.Put(minuteSnap("a", i*60)); err != nil {
				t.Fatal(err)
			}
		}
		// Retention only removes files already folded upward, so cascade
		// the complete decaminutely window first.
		if err := st.CascadeAll([]string{"a"}, 600); err != nil {
			t.Fatal(err)
		}
		if _, err := st.List("a", Minutely); err != nil {
			t.Fatal(err)
		}
		if err := st.Retention("a"); err != nil {
			t.Fatal(err)
		}
		starts, err := st.List("a", Minutely)
		if err != nil {
			t.Fatal(err)
		}
		if len(starts) != 2 || starts[0] != 180 || starts[1] != 240 {
			t.Fatalf("starts after retention = %v", starts)
		}
	})
}

func TestFindUsesIndexWithDuplicateKeys(t *testing.T) {
	s := &Snapshot{
		Columns: []string{"v"}, Kinds: []Kind{Counter},
		Rows: []Row{
			{Key: "a", Values: []float64{1}},
			{Key: "dup", Values: []float64{2}},
			{Key: "dup", Values: []float64{3}},
			{Key: "z", Values: []float64{4}},
		},
	}
	// Find must return the FIRST occurrence, like the old linear scan.
	if r := s.Find("dup"); r == nil || r.Values[0] != 2 {
		t.Fatalf("Find(dup) = %+v", r)
	}
	if r := s.Find("z"); r == nil || r.Values[0] != 4 {
		t.Fatalf("Find(z) = %+v", r)
	}
	if r := s.Find("missing"); r != nil {
		t.Fatalf("Find(missing) = %+v", r)
	}
	// Appending rows must rebuild the index.
	s.Rows = append(s.Rows, Row{Key: "new", Values: []float64{5}})
	if r := s.Find("new"); r == nil || r.Values[0] != 5 {
		t.Fatalf("Find(new) after append = %+v", r)
	}
	// Sorting invalidates the index; lookups must still be correct.
	s.SortByColumn("v")
	if r := s.Find("new"); r == nil || r.Values[0] != 5 {
		t.Fatalf("Find(new) after sort = %+v", r)
	}
	if r := s.Find("a"); r == nil || r.Values[0] != 1 {
		t.Fatalf("Find(a) after sort = %+v", r)
	}
}
