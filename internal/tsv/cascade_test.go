package tsv

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestFullCascadeToDaily feeds a day of synthetic minutely files through
// the store and cascades all the way to a daily aggregate, checking the
// mean-rate semantics at every level.
func TestFullCascadeToDaily(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const minutes = 24 * 60
	// Object "steady" appears every minute at rate 10; "half" only in
	// even minutes at rate 8.
	for i := int64(0); i < minutes; i++ {
		rows := []Row{{Key: "steady", Values: []float64{10, 100}}}
		if i%2 == 0 {
			rows = append(rows, Row{Key: "half", Values: []float64{8, 50}})
		}
		s := &Snapshot{
			Aggregation: "srvip", Level: Minutely, Start: i * 60,
			Columns: []string{"hits", "qnames"},
			Kinds:   []Kind{Counter, Gauge},
			Rows:    rows, Windows: 1, TotalBefore: 20, TotalAfter: 18,
		}
		if err := st.Put(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.CascadeAll([]string{"srvip"}, minutes*60); err != nil {
		t.Fatal(err)
	}
	for _, level := range []Level{Decaminutely, Hourly, Daily} {
		starts, err := st.List("srvip", level)
		if err != nil {
			t.Fatal(err)
		}
		wantFiles := map[Level]int{Decaminutely: 144, Hourly: 24, Daily: 1}[level]
		if len(starts) != wantFiles {
			t.Fatalf("%s files = %d, want %d", level.Name(), len(starts), wantFiles)
		}
		snap, err := st.Get("srvip", level, starts[0])
		if err != nil {
			t.Fatal(err)
		}
		steady := snap.Find("steady")
		if steady == nil || math.Abs(steady.Values[0]-10) > 1e-9 {
			t.Errorf("%s steady = %+v", level.Name(), steady)
		}
		if math.Abs(steady.Values[1]-100) > 1e-9 {
			t.Errorf("%s steady gauge = %v", level.Name(), steady.Values[1])
		}
		half := snap.Find("half")
		// Counter: present half the windows at 8 -> mean rate 4.
		if half == nil || math.Abs(half.Values[0]-4) > 1e-9 {
			t.Errorf("%s half = %+v", level.Name(), half)
		}
		// Gauge: mean over present windows stays 50.
		if math.Abs(half.Values[1]-50) > 1e-9 {
			t.Errorf("%s half gauge = %v", level.Name(), half.Values[1])
		}
	}
	// Collection statistics accumulate.
	daily, err := st.Get("srvip", Daily, 0)
	if err != nil {
		t.Fatal(err)
	}
	if daily.TotalBefore != 20*minutes || daily.Windows != minutes {
		t.Errorf("daily stats: before=%d windows=%d", daily.TotalBefore, daily.Windows)
	}
}

// TestCascadePartialGroups: incomplete upper windows aggregate whatever
// files exist once the window closes (the paper averages available data
// points).
func TestCascadePartialGroups(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Only 3 of 10 minutes present in the first decaminutely window.
	for _, i := range []int64{0, 2, 7} {
		s := &Snapshot{
			Aggregation: "x", Level: Minutely, Start: i * 60,
			Columns: []string{"hits"},
			Kinds:   []Kind{Counter},
			Rows:    []Row{{Key: "k", Values: []float64{9}}},
			Windows: 1,
		}
		if err := st.Put(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.CascadeAll([]string{"x"}, 600); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get("x", Decaminutely, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Mean over the 3 present windows (absent files are unknown, not
	// zero — only objects missing from present files count as zero).
	k := got.Find("k")
	if k == nil || math.Abs(k.Values[0]-9) > 1e-9 {
		t.Errorf("k = %+v", k)
	}
	if got.Windows != 3 {
		t.Errorf("windows = %d", got.Windows)
	}
}

func TestLevelMetadata(t *testing.T) {
	if Minutely.Seconds() != 60 || Decaminutely.Seconds() != 10*60 ||
		Hourly.Seconds() != 6*600 || Daily.Seconds() != 24*3600 {
		t.Error("level metadata wrong")
	}
	names := map[string]bool{}
	for l := Minutely; l <= MaxLevel; l++ {
		if names[l.Name()] {
			t.Errorf("duplicate level name %s", l.Name())
		}
		names[l.Name()] = true
	}
}

func TestStoreManyAggregations(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, agg := range []string{"srvip", "esld", "qname"} {
		for i := int64(0); i < 12; i++ {
			s := &Snapshot{
				Aggregation: agg, Level: Minutely, Start: i * 60,
				Columns: []string{"hits"}, Kinds: []Kind{Counter},
				Rows:    []Row{{Key: fmt.Sprintf("%s-key", agg), Values: []float64{1}}},
				Windows: 1,
			}
			if err := st.Put(s); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.CascadeAll([]string{agg}, 1200); err != nil {
			t.Fatal(err)
		}
	}
	// Aggregations do not bleed into each other.
	for _, agg := range []string{"srvip", "esld", "qname"} {
		snap, err := st.Get(agg, Decaminutely, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(snap.Rows) != 1 || snap.Rows[0].Key != agg+"-key" {
			t.Errorf("%s rows = %+v", agg, snap.Rows)
		}
	}
}

// TestCascadeReadsOnlyItsInputs: "already built" is the upper level's
// listing, so a pass with nothing new to build opens no file, and a pass
// that builds one window reads that window's inputs once each — one read
// per file, a whole-file read on either backend — and nothing else.
func TestCascadeReadsOnlyItsInputs(t *testing.T) {
	aggs := []string{"srvip", "esld"}
	put := func(t *testing.T, st *Store, from, to int64) {
		t.Helper()
		for _, agg := range aggs {
			for i := from; i < to; i++ {
				if err := st.Put(&Snapshot{
					Aggregation: agg, Level: Minutely, Start: i * 60,
					Columns: []string{"hits", "qnames"},
					Kinds:   []Kind{Counter, Gauge},
					Rows: []Row{
						{Key: agg + "-a", Values: []float64{float64(i), 3}},
						{Key: agg + "-b", Values: []float64{1, float64(i % 4)}},
					},
					Windows: 1, TotalBefore: 9, TotalAfter: 8,
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	bothBackends(t, func(t *testing.T, st *Store) {
		cascade := func(now int64) {
			t.Helper()
			if err := st.CascadeAll(aggs, now); err != nil {
				t.Fatal(err)
			}
		}
		put(t, st, 0, 30)
		cascade(1800)
		if got := st.ReadCalls(); got != 60 {
			t.Fatalf("first pass: %d reads, want the 60 inputs", got)
		}
		calls, read := st.ReadCalls(), st.ReadBytes()
		cascade(1800)
		cascade(1860)
		if st.ReadCalls() != calls || st.ReadBytes() != read {
			t.Fatalf("passes with nothing to build read %d calls, %d bytes",
				st.ReadCalls()-calls, st.ReadBytes()-read)
		}
		put(t, st, 30, 40)
		cascade(2400)
		if got := st.ReadCalls() - calls; got != 20 {
			t.Fatalf("building 10min-1800 read %d files, want its 20 inputs", got)
		}
		for _, agg := range aggs {
			starts, err := st.List(agg, Decaminutely)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(starts) != "[0 600 1200 1800]" {
				t.Errorf("%s 10min files at %v", agg, starts)
			}
		}
	})
}

// TestCascadeAllMatchesSerial runs the same minutely corpus through the
// serial per-aggregation cascade and the pooled CascadeAll and requires
// byte-identical output files: parallelism must only change wall clock,
// never content.
func TestCascadeAllMatchesSerial(t *testing.T) {
	aggs := []string{"srvip", "esld", "qname", "srcsrv"}
	fill := func(st *Store) {
		for ai, agg := range aggs {
			for i := int64(0); i < 180; i++ {
				s := &Snapshot{
					Aggregation: agg, Level: Minutely, Start: i * 60,
					Columns: []string{"hits", "qnames"},
					Kinds:   []Kind{Counter, Gauge},
					Rows: []Row{
						{Key: fmt.Sprintf("%s-a", agg), Values: []float64{float64(ai + 1), float64(i % 7)}},
						{Key: fmt.Sprintf("%s-b", agg), Values: []float64{float64(i%3 + 1), 5}},
					},
					Windows: 1, TotalBefore: 11, TotalAfter: 10,
				}
				if err := st.Put(s); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	// CascadeAll's pool is GOMAXPROCS wide: one worker, then eight.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serial, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fill(serial)
	for _, agg := range aggs {
		if err := serial.CascadeAll([]string{agg}, 180*60); err != nil {
			t.Fatal(err)
		}
	}

	parallel, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(8)
	fill(parallel)
	if err := parallel.CascadeAll(aggs, 180*60); err != nil {
		t.Fatal(err)
	}

	sFiles, err := os.ReadDir(serial.Dir())
	if err != nil {
		t.Fatal(err)
	}
	pFiles, err := os.ReadDir(parallel.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(sFiles) != len(pFiles) {
		t.Fatalf("file count: serial %d, parallel %d", len(sFiles), len(pFiles))
	}
	for _, e := range sFiles {
		sb, err := os.ReadFile(filepath.Join(serial.Dir(), e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		pb, err := os.ReadFile(filepath.Join(parallel.Dir(), e.Name()))
		if err != nil {
			t.Fatalf("parallel store missing %s: %v", e.Name(), err)
		}
		if !bytes.Equal(sb, pb) {
			t.Errorf("%s differs between serial and parallel cascade", e.Name())
		}
	}
}
