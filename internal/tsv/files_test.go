package tsv

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

// versionSnap is window start of agg as written the v-th time: four
// rows whose hits say which version the file is.
func versionSnap(agg string, start int64, v int) *Snapshot {
	s := &Snapshot{Aggregation: agg, Level: Minutely, Start: start,
		Columns: []string{"hits", "nxd"}, Kinds: []Kind{Counter, Gauge}, Windows: 1}
	for i := 0; i < 4; i++ {
		s.Rows = append(s.Rows, Row{Key: fmt.Sprintf("k%d", i),
			Values: []float64{float64(1000*v + 10*i), float64(v)}})
	}
	return s
}

// versionOf returns the version every row of a one-window answer comes
// from, or -1 when they disagree or a row is not one versionSnap writes.
func versionOf(res *Result) int {
	v := -1
	for _, r := range res.Rows {
		rv := int(r.Values[1])
		if (v >= 0 && rv != v) || r.Values[0] != float64(1000*rv+10*int(r.Key[1]-'0')) {
			return -1
		}
		v = rv
	}
	return v
}

// TestQueriesSeeOldOrNewFile is the table's coherence under load: four
// goroutines query while one re-Puts and one runs Retention over the
// same windows. A query that finds a window answers it whole from the
// version it opened — never a closed descriptor, a mix of two files or
// a corrupt skip — and one that does not finds no data.
func TestQueriesSeeOldOrNewFile(t *testing.T) {
	const windows = 4
	bothBackends(t, func(t *testing.T, st *Store) {
		st.Retain[Minutely] = 2
		// The 10-minute window above lets Retention delete minutes.
		if err := st.Put(&Snapshot{Aggregation: "race", Level: Decaminutely, Columns: []string{"hits", "nxd"},
			Kinds: []Kind{Counter, Gauge}, Windows: 10}); err != nil {
			t.Fatal(err)
		}
		for w := int64(0); w < windows; w++ {
			if err := st.Put(versionSnap("race", w*60, 0)); err != nil {
				t.Fatal(err)
			}
		}
		done := make(chan struct{})
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				eng := NewEngine(st)
				for i := 0; ; i++ {
					select {
					case <-done:
						return
					default:
					}
					w := int64((g+i)%windows) * 60
					q := Query{Agg: "race", From: w, To: w + 60, OrderBy: "hits"}
					if i%2 == 1 {
						q.Key = "k2"
					}
					res, err := eng.Run(q)
					if errors.Is(err, ErrNoData) {
						continue // retained away
					}
					if err != nil {
						errs <- fmt.Errorf("window %d: %w", w, err)
						return
					}
					if want := 4 - 3*(i%2); res.CorruptSkipped != 0 || len(res.Rows) != want || versionOf(res) < 0 {
						errs <- fmt.Errorf("window %d: %d rows, %d corrupt, not one version: %+v", w, len(res.Rows), res.CorruptSkipped, res.Rows)
						return
					}
				}
			}(g)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := st.Retention("race"); err != nil {
					errs <- err
					return
				}
				runtime.Gosched()
			}
		}()
		const puts = 200
		for v := 1; v <= puts; v++ {
			if err := st.Put(versionSnap("race", int64(v%windows)*60, v)); err != nil {
				t.Fatal(err)
			}
			runtime.Gosched()
		}
		close(done)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		// Once the writers stop, a window still on disk answers with
		// its last Put and one Retention took answers nothing: no read
		// that raced a Put left the old file in the table.
		for w := 0; w < windows; w++ {
			res, err := RunQuery(st, Query{Agg: "race", From: int64(w) * 60, To: int64(w)*60 + 60, OrderBy: "hits"})
			_, statErr := os.Stat(filepath.Join(st.Dir(), st.FileName(&Snapshot{Aggregation: "race", Start: int64(w) * 60})))
			switch {
			case statErr != nil && !errors.Is(err, ErrNoData):
				t.Errorf("window %d is gone from disk, the query says %v", w*60, err)
			case statErr == nil && err != nil:
				t.Errorf("window %d: %v", w*60, err)
			case statErr == nil && versionOf(res) != puts-(puts-w)%windows:
				t.Errorf("window %d reads version %d, its last Put wrote %d", w*60, versionOf(res), puts-(puts-w)%windows)
			}
		}
		st.files.mu.Lock()
		held := len(st.files.files)
		st.files.mu.Unlock()
		if open := st.files.open.Load(); open != int64(held) {
			t.Errorf("%d files open, the table holds %d", open, held)
		}
		st.Close()
		if open := st.files.open.Load(); open != 0 {
			t.Errorf("%d files open after Close", open)
		}
	})
}

// TestListingMatchesDiskAfterRace: beside a re-Put loop and a Retention
// loop over the same windows, the level listing names exactly the files
// on disk whenever no Put or Retention holds it, and still does once the
// loops stop. When Put inserted into the listing after its rename, and
// outside the listing's lock, the listing missed a renamed file for a
// while, and a Retention that removed the file before a rescan let the
// insert name a file that was gone.
func TestListingMatchesDiskAfterRace(t *testing.T) {
	const windows, rounds, puts = 4, 10, 40
	bothBackends(t, func(t *testing.T, st *Store) {
		st.Retain[Minutely] = 1
		// The 10-minute window above lets Retention delete minutes.
		if err := st.Put(&Snapshot{Aggregation: "race", Level: Decaminutely, Columns: []string{"hits", "nxd"},
			Kinds: []Kind{Counter, Gauge}, Windows: 10}); err != nil {
			t.Fatal(err)
		}
		onDisk := func() []int64 {
			var starts []int64
			for w := int64(0); w < windows; w++ {
				if _, err := os.Stat(st.path(fileKey{"race", Minutely, w * 60})); err == nil {
					starts = append(starts, w*60)
				}
			}
			return starts
		}
		for round := 0; round < rounds; round++ {
			done := make(chan struct{})
			var wg sync.WaitGroup
			errs := make(chan error, 2)
			loop := func(step func() error) {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					if err := step(); err != nil {
						errs <- err
						return
					}
					runtime.Gosched()
				}
			}
			wg.Add(2)
			go loop(func() error { return st.Retention("race") })
			go loop(func() error {
				st.listMu.Lock()
				defer st.listMu.Unlock()
				listing, err := st.cachedLevel(Minutely)
				if listed, disk := listing["race"], onDisk(); err == nil && !slices.Equal(listed, disk) {
					err = fmt.Errorf("the listing names %v, the disk holds %v", listed, disk)
				}
				return err
			})
			for v := 1; v <= puts; v++ {
				if err := st.Put(versionSnap("race", int64(v%windows)*60, v)); err != nil {
					t.Fatal(err)
				}
				runtime.Gosched()
			}
			close(done)
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatalf("round %d: %v", round, err)
			}
			if listed, err := st.List("race", Minutely); err != nil || !slices.Equal(listed, onDisk()) {
				t.Fatalf("round %d, after the loops: the listing names %v (%v), the disk holds %v", round, listed, err, onDisk())
			}
		}
	})
}

// TestRetentionClosesDeletedFiles: once Retention returns, no
// descriptor of the process points at a store file it deleted.
func TestRetentionClosesDeletedFiles(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc/self/fd")
	}
	bothBackends(t, func(t *testing.T, st *Store) {
		for w := int64(0); w < 6; w++ {
			if err := st.Put(versionSnap("ret", w*60, 1)); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.CascadeAll([]string{"ret"}, 600); err != nil {
			t.Fatal(err)
		}
		if _, err := RunQuery(st, Query{Agg: "ret"}); err != nil {
			t.Fatal(err)
		}
		if n := st.files.open.Load(); n != 6 {
			t.Fatalf("%d files open after a query over 6", n)
		}
		st.Retain[Minutely] = 1
		if err := st.Retention("ret"); err != nil {
			t.Fatal(err)
		}
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		for _, fd := range fds {
			target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
			if err == nil && strings.HasPrefix(target, st.Dir()) && strings.HasSuffix(target, " (deleted)") {
				t.Errorf("fd %s still open on %s", fd.Name(), target)
			}
		}
		if n := st.files.open.Load(); n != 1 {
			t.Errorf("%d files open, 1 survived Retention", n)
		}
	})
}

// TestFileTableBound: reading more distinct files than the table holds
// keeps it at its bound, and a range past the bound still hits in part.
func TestFileTableBound(t *testing.T) {
	st, err := NewColumnarStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const extra = 20
	for w := int64(0); w < maxOpenFiles+extra; w++ {
		if err := st.Put(versionSnap("many", w*60, 1)); err != nil {
			t.Fatal(err)
		}
	}
	eng := NewEngine(st)
	for w := int64(0); w < maxOpenFiles+extra; w++ {
		if _, err := eng.Run(Query{Agg: "many", From: w * 60, To: w*60 + 60, Key: "k1"}); err != nil {
			t.Fatal(err)
		}
		if n := st.files.open.Load(); n > maxOpenFiles {
			t.Fatalf("%d files open after %d read, bound %d", n, w+1, maxOpenFiles)
		}
	}
	if n, ev := st.files.open.Load(), st.files.evictions.Load(); n != maxOpenFiles || ev != extra {
		t.Errorf("%d files open, %d evicted; want %d and %d", n, ev, maxOpenFiles, extra)
	}
	// A range longer than the bound still finds most of itself open:
	// evictions pick no fixed victim, so a second pass over every file
	// does not miss each one in turn, as least-recently-used would.
	hits, misses := st.files.hits.Load(), st.files.misses.Load()
	if _, err := eng.Run(Query{Agg: "many", Key: "k1"}); err != nil {
		t.Fatal(err)
	}
	hits, misses = st.files.hits.Load()-hits, st.files.misses.Load()-misses
	t.Logf("second pass: %d hits, %d misses", hits, misses)
	if hits+misses != maxOpenFiles+extra || hits < maxOpenFiles/2 {
		t.Errorf("second pass: %d hits, %d misses over %d files", hits, misses, maxOpenFiles+extra)
	}
	if n := st.files.open.Load(); n != maxOpenFiles {
		t.Errorf("%d files open after the second pass, want %d", n, maxOpenFiles)
	}
	st.Close()
}

// TestPutOverQueriedWindow: a Put replaces a file the table holds, and
// the next query reads the new one.
func TestPutOverQueriedWindow(t *testing.T) {
	bothBackends(t, func(t *testing.T, st *Store) {
		for v := 1; v <= 3; v++ {
			if err := st.Put(versionSnap("put", 0, v)); err != nil {
				t.Fatal(err)
			}
			for range 2 { // the second read is served by the table
				res, err := RunQuery(st, Query{Agg: "put", OrderBy: "hits"})
				if err != nil {
					t.Fatal(err)
				}
				if got := versionOf(res); got != v {
					t.Fatalf("after Put of version %d the query reads version %d", v, got)
				}
			}
		}
		if h := st.files.hits.Load(); h != 3 {
			t.Errorf("%d table hits, want 3", h)
		}
	})
}

// TestReadThatRacedPutIsNotAdmitted: a read that missed, then opened
// the file just before a Put replaced it, does not put the old file in
// the table once that Put has dropped the entry.
func TestReadThatRacedPutIsNotAdmitted(t *testing.T) {
	st, err := NewColumnarStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := fileKey{"raced", Minutely, 0}
	if err := st.Put(versionSnap(k.agg, k.start, 1)); err != nil {
		t.Fatal(err)
	}
	_, gen := st.files.pin(k) // a miss
	old, err := os.Open(st.path(k))
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	if err := st.Put(versionSnap(k.agg, k.start, 2)); err != nil {
		t.Fatal(err)
	}
	if st.files.admit(k, old, 0, nil, gen) {
		t.Fatal("the file a Put replaced was admitted after the Put")
	}
	res, err := RunQuery(st, Query{Agg: k.agg, OrderBy: "hits"})
	if err != nil || versionOf(res) != 2 {
		t.Fatalf("query after the Put reads version %d (%v)", versionOf(res), err)
	}
}

// TestCorruptFileNotAdmitted: a file that fails its first read never
// enters the table, so every query reads it again and counts it.
func TestCorruptFileNotAdmitted(t *testing.T) {
	bothBackends(t, func(t *testing.T, st *Store) {
		for w := int64(0); w < 3; w++ {
			if err := st.Put(versionSnap("bad", w*60, 1)); err != nil {
				t.Fatal(err)
			}
		}
		bad := filepath.Join(st.Dir(), st.FileName(&Snapshot{Aggregation: "bad", Start: 60}))
		if err := os.WriteFile(bad, []byte("DNSC1\ngarbage"), 0o644); err != nil {
			t.Fatal(err)
		}
		eng := NewEngine(st)
		for i := 0; i < 3; i++ {
			res, err := eng.Run(Query{Agg: "bad", Key: "k1"})
			if err != nil {
				t.Fatal(err)
			}
			if res.CorruptSkipped != 1 || res.Files != 2 {
				t.Fatalf("query %d: %d files, %d corrupt; want 2 and 1", i, res.Files, res.CorruptSkipped)
			}
		}
		if n := st.files.open.Load(); n != 2 {
			t.Errorf("%d files open, want the 2 valid ones", n)
		}
		if eng.CorruptSkips() != 3 {
			t.Errorf("%d corrupt skips over 3 queries", eng.CorruptSkips())
		}
	})
}

// TestPutRefusesRepeatedColumn: a snapshot that names a column twice is
// refused before anything is written, so the store never commits a file
// its reader rejects.
func TestPutRefusesRepeatedColumn(t *testing.T) {
	bothBackends(t, func(t *testing.T, st *Store) {
		s := versionSnap("dup", 0, 1)
		s.Columns[1] = "hits"
		if err := st.Put(s); err == nil {
			t.Fatal("Put accepted a snapshot with two hits columns")
		}
		if entries, err := os.ReadDir(st.Dir()); err != nil || len(entries) != 0 {
			t.Fatalf("store holds %v (%v) after the refused Put", entries, err)
		}
	})
}

// TestRepeatsMatchesPairwise: the hashed repeated-name check agrees
// with the oracles' pairwise one (repeatsName) on headers narrower and
// wider than its table, wherever the repeat sits, as strings and as the
// byte views a reader parses.
func TestRepeatsMatchesPairwise(t *testing.T) {
	for _, n := range []int{0, 1, 2, 40, 510, 511, 512, 700} {
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("c%d", i)
		}
		cases := [][]string{names}
		for _, pair := range [][2]int{{0, 1}, {0, n - 1}, {n / 2, n - 1}, {509, 510}, {510, 511}, {600, 650}} {
			if pair[0] < pair[1] && pair[1] < n {
				dup := slices.Clone(names)
				dup[pair[1]] = dup[pair[0]]
				cases = append(cases, dup)
			}
		}
		for _, c := range cases {
			views := make([][]byte, len(c))
			for i, s := range c {
				views[i] = []byte(s)
			}
			if want := repeatsName(c); repeats(c) != want || repeats(views) != want {
				t.Errorf("%d names: repeats %v / %v, pairwise %v", n, repeats(c), repeats(views), want)
			}
		}
	}
}
