package tsv

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
)

// hostileSnapshot builds a window whose values are everything a float
// can be: NaN, −0, ±Inf and subnormals among ordinary counters and
// gauges, a Mode column with its zero ("nothing observed") and an
// infinite TTL, keys shared between rows when dup is set. NaN stays out
// of the Mode column: the reference tallies modes in a map, where every
// NaN is its own key and which one wins depends on iteration order.
func hostileSnapshot(x *xorshift, start int64, rows, windows int, dup bool) *Snapshot {
	s := &Snapshot{
		Aggregation: "test", Level: Minutely, Start: start,
		Columns:     []string{"hits", "nxd", "delay", "ttl_mode", "ttl2_mode"},
		Kinds:       []Kind{Counter, Counter, Gauge, Mode, Mode},
		TotalBefore: x.next() % 100000, TotalAfter: x.next() % 90000,
		Windows: windows,
	}
	odd := []float64{math.NaN(), math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 5e-324, 0, 1 << 52, -123456.5}
	ttls := []float64{0, 60, 300, 3600, 86400, math.Inf(1)}
	pick := func(ordinary float64) float64 {
		if x.next()%9 == 0 {
			return odd[x.next()%uint64(len(odd))]
		}
		return ordinary
	}
	for i := 0; i < rows; i++ {
		key := fmt.Sprintf("obj-%d", x.next()%uint64(2*rows+1)) // overlapping, not identical, key sets
		if dup && i%5 == 2 {
			key = "dup-key"
		}
		s.Rows = append(s.Rows, Row{Key: key, Values: []float64{
			pick(float64(x.next() % 100000)),
			pick(float64(x.next() % 500)),
			pick(x.float()),
			ttls[x.next()%uint64(len(ttls))],
			ttls[x.next()%uint64(len(ttls))],
		}})
	}
	return s
}

// sameRows compares two row lists bit for bit, order included — except
// that any NaN equals any NaN: which payload survives NaN + NaN depends
// on the operand order the compiler picked for a commutative add, and
// differs between two builds of the same source (-race flips it).
func sameRows(t *testing.T, what string, want, got []Row) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range want {
		if want[i].Key != got[i].Key || len(want[i].Values) != len(got[i].Values) {
			t.Fatalf("%s: row %d is %q/%d, want %q/%d", what, i,
				got[i].Key, len(got[i].Values), want[i].Key, len(want[i].Values))
		}
		for j := range want[i].Values {
			w, g := want[i].Values[j], got[i].Values[j]
			if math.Float64bits(w) != math.Float64bits(g) && !(math.IsNaN(w) && math.IsNaN(g)) {
				t.Fatalf("%s: row %d (%q) column %d is %v, want %v", what, i, want[i].Key, j, g, w)
			}
		}
	}
}

// TestAccumulatorMatchesReference holds the one accumulator to both
// frozen aggregators it replaced, bit for bit: the query engine's
// mergeWindows (first-appearance order) fed from snapshots and fed from
// the columnar reader's scratch, under every kind of projection, and
// the cascade's Aggregate, whose body is accumulator.snapshot.
func TestAccumulatorMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		x := xorshift(seed * 7919)
		nFiles := 2 + int(x.next()%5)
		var snaps []*Snapshot
		for f := 0; f < nFiles; f++ {
			windows := []int{1, 1, 3, 10, 0}[x.next()%5]
			snaps = append(snaps, hostileSnapshot(&x, int64(f)*60, int(x.next()%400), windows, seed%2 == 0))
		}
		present := "dup-key"
		if len(snaps[0].Rows) > 0 {
			present = snaps[0].Rows[0].Key
		}
		for pi, proj := range []*Projection{
			nil,
			{Columns: []string{"ttl_mode", "hits"}},
			{Key: present},
			{Key: "dup-key", Columns: []string{"delay", "ttl2_mode"}},
			{Where: []Pred{AtLeast("hits", 50000)}},
			{Columns: []string{"nxd"}, Where: []Pred{{Col: "ttl_mode", Min: 60, Max: 3600}}},
		} {
			what := fmt.Sprintf("seed %d, projection %d", seed, pi)
			var projected []*Snapshot
			for _, s := range snaps {
				p, err := applyProjection(s, proj)
				if err != nil {
					t.Fatal(err)
				}
				projected = append(projected, p)
			}
			var ref Result
			want, err := refMergeWindows(projected, &ref)
			if err != nil {
				t.Fatal(err)
			}

			fromSnaps, fromFiles := newAccumulator(), newAccumulator()
			for i, s := range snaps {
				if err := fromSnaps.foldSnapshot(projected[i]); err != nil {
					t.Fatal(err)
				}
				data := encodeToBytes(t, s)
				cf := new(colFile)
				if err := cf.open(bytes.NewReader(data), int64(len(data)), proj, nil); err != nil {
					t.Fatal(err)
				}
				if err := fromFiles.foldFile(cf); err != nil {
					t.Fatal(err)
				}
			}
			for how, acc := range map[string]*accumulator{"foldSnapshot": fromSnaps, "foldFile": fromFiles} {
				got, _ := acc.rows(nil, nil)
				sameRows(t, what+", "+how, want, got)
				if acc.windows != ref.Windows || acc.totalBefore != ref.TotalBefore || acc.totalAfter != ref.TotalAfter {
					t.Fatalf("%s, %s: totals %d/%d/%d, want %d/%d/%d", what, how,
						acc.windows, acc.totalBefore, acc.totalAfter, ref.Windows, ref.TotalBefore, ref.TotalAfter)
				}
				if fmt.Sprint(acc.cols, acc.kinds) != fmt.Sprint(ref.Columns, ref.Kinds) {
					t.Fatalf("%s, %s: schema %v %v, want %v %v", what, how, acc.cols, acc.kinds, ref.Columns, ref.Kinds)
				}
				acc.release()
			}
		}

		wantAgg, err := refAggregate(snaps)
		if err != nil {
			t.Fatal(err)
		}
		acc := newAccumulator()
		for _, s := range snaps {
			if err := acc.foldSnapshot(s); err != nil {
				t.Fatal(err)
			}
		}
		gotAgg := acc.snapshot(snaps[0].Aggregation, snaps[0].Level+1, snaps[0].Start)
		acc.release()
		sameRows(t, fmt.Sprintf("seed %d, snapshot", seed), wantAgg.Rows, gotAgg.Rows)
		wantAgg.Rows, gotAgg.Rows = nil, nil
		if !reflect.DeepEqual(wantAgg, gotAgg) {
			t.Fatalf("seed %d: snapshot header %+v, want %+v", seed, gotAgg, wantAgg)
		}
	}
}

// TestAccumulatorSchemaChange: a file whose projected schema differs
// from the first one's stops the fold, from either source.
func TestAccumulatorSchemaChange(t *testing.T) {
	a := randomSnapshot(1, 5, false)
	b := randomSnapshot(2, 5, false)
	b.Kinds = append([]Kind(nil), b.Kinds...)
	b.Kinds[2] = Counter
	c := randomSnapshot(3, 5, false)
	c.Columns = c.Columns[:4]
	for i := range c.Rows {
		c.Rows[i].Values = c.Rows[i].Values[:4]
	}
	for name, other := range map[string]*Snapshot{"kind": b, "width": c} {
		acc := newAccumulator()
		if err := acc.foldSnapshot(a); err != nil {
			t.Fatal(err)
		}
		if err := acc.foldSnapshot(other); !errors.Is(err, ErrSchemaChange) {
			t.Errorf("%s, foldSnapshot: %v", name, err)
		}
		data := encodeToBytes(t, other)
		cf := new(colFile)
		if err := cf.open(bytes.NewReader(data), int64(len(data)), nil, nil); err != nil {
			t.Fatal(err)
		}
		if err := acc.foldFile(cf); !errors.Is(err, ErrSchemaChange) {
			t.Errorf("%s, foldFile: %v", name, err)
		}
		acc.release()
	}
}

// storeFile is the path of a minutely "test" window in st.
func storeFile(st *Store, start int64) string {
	return filepath.Join(st.Dir(), st.FileName(&Snapshot{Aggregation: "test", Level: Minutely, Start: start}))
}

// TestQuerySingleReadableFilePassthrough: when one file of the range is
// readable — the others corrupt, or listed and since deleted — its rows
// pass through untouched: rows that share a key stay apart, and no
// value takes the v·w/w round trip (w = 3 loses bits).
func TestQuerySingleReadableFilePassthrough(t *testing.T) {
	bothBackends(t, func(t *testing.T, st *Store) {
		x := xorshift(77)
		var middle *Snapshot
		for i := int64(0); i < 4; i++ {
			s := hostileSnapshot(&x, i*60, 50, 3, true)
			if i == 2 {
				middle = s
			}
			if err := st.Put(s); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := st.List("test", Minutely); err != nil { // warm the listing
			t.Fatal(err)
		}
		for _, start := range []int64{0, 60} {
			if err := os.WriteFile(storeFile(st, start), []byte("garbage"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.Remove(storeFile(st, 180)); err != nil {
			t.Fatal(err)
		}
		res, err := RunQuery(st, Query{Agg: "test", Level: Minutely})
		if err != nil {
			t.Fatal(err)
		}
		if res.Files != 1 || res.CorruptSkipped != 2 || res.From != 120 || res.To != 120 || res.Windows != 3 {
			t.Fatalf("meta = %+v", res)
		}
		want := TopRows(middle.Rows, 0, 0)
		dups := 0
		for _, r := range want {
			if r.Key == "dup-key" {
				dups++
			}
		}
		if dups < 2 {
			t.Fatalf("fixture has %d dup-key rows", dups)
		}
		if st.Backend() == BackendTSV {
			// Text does not carry NaN payloads or the sign of zero
			// exactly as bits; the TSV twin is compared by value.
			if len(res.Rows) != len(want) {
				t.Fatalf("%d rows, want %d", len(res.Rows), len(want))
			}
			return
		}
		sameRows(t, "passthrough", want, res.Rows)
	})
}

// TestQueryResolvesColumnsAtFirstFile: an unknown OrderBy with no
// column list used to decode every file in range in full before
// failing; it now fails on the first file's schema.
func TestQueryResolvesColumnsAtFirstFile(t *testing.T) {
	st := benchStore(t, BackendColumnar, 5, 100)
	fi, err := os.Stat(filepath.Join(st.Dir(), st.FileName(&Snapshot{Aggregation: "srvip"})))
	if err != nil {
		t.Fatal(err)
	}
	for name, q := range map[string]Query{
		"order": {Agg: "srvip", OrderBy: "nope"},
		"cols":  {Agg: "srvip", Columns: []string{"nope"}},
		"where": {Agg: "srvip", Where: []Pred{AtLeast("nope", 1)}},
	} {
		before := st.ReadBytes()
		if _, err := RunQuery(st, q); !errors.Is(err, ErrUnknownColumn) {
			t.Fatalf("%s: %v", name, err)
		}
		if read := st.ReadBytes() - before; read > uint64(fi.Size()) {
			t.Errorf("%s: read %d bytes before failing, the first file is %d", name, read, fi.Size())
		}
	}
}

// concurrencyBattery is a mix of every query shape over benchStore's
// schema.
var concurrencyBattery = []Query{
	{Agg: "srvip", Columns: []string{"hits", "f05", "f20"}, OrderBy: "hits", K: 10},
	{Agg: "srvip", Key: "obj-00042", Columns: []string{"hits", "delay"}},
	{Agg: "srvip", Key: "absent.invalid."},
	{Agg: "srvip", Columns: []string{"f07"}, OrderBy: "hits", Where: []Pred{AtLeast("hits", 90000)}, K: 50},
	{Agg: "srvip", K: 5},
	{Agg: "srvip", From: 120, To: 180, K: 20}, // one window: passthrough
	{Agg: "srvip", From: 60, To: 600, Columns: []string{"delay"}, K: 0},
}

// TestEngineConcurrentQueries: one engine, eight goroutines, every
// shape at once — over pooled scratch — returns what the serial run
// returns, and a Result is the caller's: later queries reusing the
// scratch it was computed in do not change it.
func TestEngineConcurrentQueries(t *testing.T) {
	st := benchStore(t, BackendColumnar, 12, 2000)
	eng := NewEngine(st)
	var kept []*Result
	var want []string
	for _, q := range concurrencyBattery {
		res, err := eng.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		kept = append(kept, res)
		want = append(want, hashResult(res))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4*len(concurrencyBattery); i++ {
				qi := (g + i) % len(concurrencyBattery)
				res, err := eng.Run(concurrencyBattery[qi])
				if err != nil {
					t.Errorf("goroutine %d, query %d: %v", g, qi, err)
					return
				}
				if got := hashResult(res); got != want[qi] {
					t.Errorf("goroutine %d, query %d: result differs from the serial run", g, qi)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for qi, res := range kept {
		if got := hashResult(res); got != want[qi] {
			t.Errorf("query %d: the Result changed after later queries ran", qi)
		}
	}
}

// allocated runs fn n times and returns the mean bytes and objects
// allocated per run, with the collector off and on one P: a collection
// empties the scratch pools and a goroutine that changes P finds the
// other P's pool empty, and refilling them is not what a query costs.
func allocated(n int, fn func()) (bytes, objects float64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn() // warm the pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// skipIfPoolDrops skips an allocation budget when sync.Pool is dropping
// what it is given, as it does on purpose under the race detector: the
// budgets are those of pools that keep it.
func skipIfPoolDrops(t *testing.T) {
	t.Helper()
	var probe sync.Pool
	for i := 0; i < 64; i++ {
		x := new(int)
		probe.Put(x)
		if probe.Get() != any(x) {
			t.Skip("sync.Pool is dropping objects (race detector): allocation is not what it is in production")
		}
	}
}

// TestQueryAllocBudget is the property the streaming read path exists
// for: what a query allocates depends on its answer, not on the bytes
// in range. A point miss costs nothing per file once the store's file
// table holds the files — the bloom rejects the key from the frame kept
// there — and a small constant per query, whatever the file's size; a
// top-k, once every key has appeared, costs the same per further window:
// the accumulator does not grow and no file is materialized.
func TestQueryAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two stores")
	}
	skipIfPoolDrops(t)
	const files = 16
	miss := Query{Agg: "srvip", Key: "absent.invalid.", Columns: []string{"hits", "f05", "f20"}, K: 50}
	small, big := benchStore(t, BackendColumnar, files, 2000), benchStore(t, BackendColumnar, files, 8000)
	run := func(st *Store, q Query) func() {
		eng := NewEngine(st)
		return func() {
			if _, err := eng.Run(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	smallBytes, smallObjs := allocated(20, run(small, miss))
	bigBytes, bigObjs := allocated(20, run(big, miss))
	missFew := miss
	missFew.To = 4 * 60
	_, fewMissObjs := allocated(20, run(big, missFew))
	t.Logf("point miss over %d files: %.0f B, %.1f objects at 2000 rows; %.0f B, %.1f objects at 8000 rows; %.1f objects over 4 files",
		files, smallBytes, smallObjs, bigBytes, bigObjs, fewMissObjs)
	if perFile := (bigObjs - fewMissObjs) / (files - 4); perFile != 0 {
		t.Errorf("point miss on a warm file table allocates %.2f objects per file, budget 0", perFile)
	}
	// Cold: a first read opens the file, checks its frame and offers it
	// to the table, which keeps a copy of the frame; an uncached read (a
	// closed table's, and Get's and the cascade's) does only the first
	// two.
	first := func(q Query) func() {
		return func() {
			big.files.closeAll()
			big.files = fileTable{}
			run(big, q)()
		}
	}
	_, firstObjs := allocated(10, first(miss))
	_, firstFewObjs := allocated(10, first(missFew))
	big.Close()
	_, coldObjs := allocated(10, run(big, miss))
	_, coldFewObjs := allocated(10, run(big, missFew))
	firstPerFile, coldPerFile := (firstObjs-firstFewObjs)/(files-4), (coldObjs-coldFewObjs)/(files-4)
	t.Logf("point miss, objects per file: %.1f on a first read, %.1f uncached", firstPerFile, coldPerFile)
	if coldPerFile > 10 {
		t.Errorf("uncached point miss allocates %.1f objects per file, budget 10", coldPerFile)
	}
	if firstPerFile > coldPerFile+8 {
		t.Errorf("a first read allocates %.1f objects per file, %.1f more than an uncached one, budget 8", firstPerFile, firstPerFile-coldPerFile)
	}
	if bigBytes > 1.1*smallBytes+512 {
		t.Errorf("point miss allocates %.0f B on 8000-row files, %.0f B on 2000-row files: it grows with the file", bigBytes, smallBytes)
	}
	if perFile := bigBytes / files; perFile > 1024 {
		t.Errorf("point miss allocates %.0f B per file, budget 1 KB", perFile)
	}

	// benchStore's windows all hold the same keys, so after the second
	// file (the first is materialized, the second copies its new keys —
	// none) every further window is the steady state.
	topk := Query{Agg: "srvip", Columns: []string{"hits", "f05", "f20"}, OrderBy: "hits", K: 10}
	few, many := topk, topk
	few.To, many.To = 4*60, files*60
	fewBytes, fewObjs := allocated(10, run(small, few))
	manyBytes, manyObjs := allocated(10, run(small, many))
	t.Logf("top-k of 2000 keys: %.0f B, %.1f objects over 4 windows; %.0f B, %.1f objects over %d",
		fewBytes, fewObjs, manyBytes, manyObjs, files)
	if perWindow := (manyBytes - fewBytes) / (files - 4); perWindow > 1024 {
		t.Errorf("top-k allocates %.0f B per further window, budget 1 KB: a 2000-row window is being built somewhere", perWindow)
	}
	if perWindow := (manyObjs - fewObjs) / (files - 4); perWindow > 10 {
		t.Errorf("top-k allocates %.1f objects per further window, budget 10", perWindow)
	}
}

// TestFoldAllocsIndependentOfRows: folding a file into a warm
// accumulator that already holds its keys allocates the same at 100
// rows as at 10 000, on either codec — the file's path and handle, and
// nothing per row. The columnar reader has always folded from its
// scratch; this holds the text reader to the same.
func TestFoldAllocsIndependentOfRows(t *testing.T) {
	for _, backend := range []string{BackendTSV, BackendColumnar} {
		st, err := NewStoreBackend(t.TempDir(), backend)
		if err != nil {
			t.Fatal(err)
		}
		x := xorshift(3)
		for start, rows := range map[int64]int{0: 10000, 60: 100} {
			s := hostileSnapshot(&x, start, 0, 1, false)
			for i := 0; i < rows; i++ {
				s.Rows = append(s.Rows, Row{Key: fmt.Sprintf("obj-%05d", i),
					Values: []float64{float64(i), 3, 0.25, 300, float64(i % 7)}})
			}
			if err := st.Put(s); err != nil {
				t.Fatal(err)
			}
		}
		acc := newAccumulator()
		fold := func(start int64) func() {
			return func() {
				if _, err := st.scan(fileKey{"test", Minutely, start}, nil, acc, false); err != nil {
					t.Fatal(err)
				}
			}
		}
		fold(0)() // every key held
		small := testing.AllocsPerRun(20, fold(60))
		big := testing.AllocsPerRun(20, fold(0))
		t.Logf("%s: %.0f allocations per 100-row fold, %.0f per 10 000-row fold", backend, small, big)
		if big != small {
			t.Errorf("%s: a fold allocates %.0f objects at 10 000 rows and %.0f at 100", backend, big, small)
		}
		acc.release()
	}
}
