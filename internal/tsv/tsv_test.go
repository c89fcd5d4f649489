package tsv

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

func snap(agg string, level Level, start int64, rows []Row) *Snapshot {
	return &Snapshot{
		Aggregation: agg,
		Level:       level,
		Start:       start,
		Columns:     []string{"hits", "qnames"},
		Kinds:       []Kind{Counter, Gauge},
		Rows:        rows,
		TotalBefore: 100,
		TotalAfter:  90,
		Windows:     1,
	}
}

func TestFileNameRoundTrip(t *testing.T) {
	s := snap("srvip", Hourly, 1546300800, nil)
	name := s.FileName()
	if name != "srvip-hour-1546300800.tsv" {
		t.Errorf("name = %q", name)
	}
	agg, level, start, err := ParseFileName(name)
	if err != nil || agg != "srvip" || level != Hourly || start != 1546300800 {
		t.Errorf("parsed %q %v %d %v", agg, level, start, err)
	}
	// Aggregation names containing dashes survive.
	s2 := snap("src-srv", Minutely, 60, nil)
	agg, level, start, err = ParseFileName(s2.FileName())
	if err != nil || agg != "src-srv" || level != Minutely || start != 60 {
		t.Errorf("dashed: %q %v %d %v", agg, level, start, err)
	}
}

func TestParseFileNameErrors(t *testing.T) {
	for _, name := range []string{"", "x.tsv", "a-b.tsv", "a-hour-xyz.tsv", "a-lightyear-12.tsv"} {
		if _, _, _, err := ParseFileName(name); err == nil {
			t.Errorf("%q accepted", name)
		}
	}
}

func TestParseLevel(t *testing.T) {
	for name, want := range map[string]Level{
		"min": Minutely, "10min": Decaminutely, "hour": Hourly,
		"day": Daily, "month": Monthly, "year": Yearly,
	} {
		if got, ok := ParseLevel(name); !ok || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", name, got, ok, want)
		}
	}
	for _, name := range []string{"", "minutely", "hourly", "Min", "week"} {
		if _, ok := ParseLevel(name); ok {
			t.Errorf("ParseLevel(%q) accepted", name)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	s := snap("qname", Minutely, 120, []Row{
		{Key: "www.example.com.", Values: []float64{42, 7}},
		{Key: "api.example.org.", Values: []float64{13, 2.5}},
	})
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.HasPrefix(text, "#key\thits\tqnames\n#kind\tc\tg\n") {
		t.Errorf("header:\n%s", text)
	}
	if !strings.Contains(text, "#stats\ttotal_before=100\ttotal_after=90\twindows=1\n") {
		t.Errorf("stats row missing:\n%s", text)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Columns, s.Columns) || !reflect.DeepEqual(got.Kinds, s.Kinds) {
		t.Errorf("schema mismatch: %+v", got)
	}
	if !reflect.DeepEqual(got.Rows, s.Rows) {
		t.Errorf("rows mismatch: %+v", got.Rows)
	}
	if got.TotalBefore != 100 || got.TotalAfter != 90 || got.Windows != 1 {
		t.Errorf("stats: %+v", got)
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"",                             // no header
		"www.test.\t1\t2\n",            // row before header
		"#key\ta\tb\nx\t1\n",           // wrong arity
		"#key\ta\nx\tnotanumber\n",     // bad float
		"#key\ta\n#stats\twindows=z\n", // bad stat value
	}
	for i, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestAggregateCountersAndGauges(t *testing.T) {
	// Object "a" in both windows, "b" only in the first.
	s1 := snap("srvip", Minutely, 0, []Row{
		{Key: "a", Values: []float64{10, 100}},
		{Key: "b", Values: []float64{6, 50}},
	})
	s2 := snap("srvip", Minutely, 60, []Row{
		{Key: "a", Values: []float64{20, 200}},
	})
	out, err := Aggregate([]*Snapshot{s1, s2})
	if err != nil {
		t.Fatal(err)
	}
	if out.Level != Decaminutely || out.Windows != 2 || out.Start != 0 {
		t.Errorf("meta: %+v", out)
	}
	a := out.Find("a")
	if a == nil {
		t.Fatal("a missing")
	}
	// Counter: (10+20)/2; gauge: (100+200)/2.
	if a.Values[0] != 15 || a.Values[1] != 150 {
		t.Errorf("a = %v", a.Values)
	}
	b := out.Find("b")
	if b == nil {
		t.Fatal("b missing")
	}
	// Counter: absent window counts as zero -> 6/2. Gauge: skip missing -> 50.
	if b.Values[0] != 3 || b.Values[1] != 50 {
		t.Errorf("b = %v", b.Values)
	}
	if out.TotalBefore != 200 || out.TotalAfter != 180 {
		t.Errorf("stats: %+v", out)
	}
}

func TestAggregateWeightsByWindows(t *testing.T) {
	// Re-aggregating pre-aggregated snapshots must weight by window count.
	s1 := snap("x", Decaminutely, 0, []Row{{Key: "a", Values: []float64{10, 10}}})
	s1.Level = Decaminutely
	s1.Windows = 10
	s2 := snap("x", Decaminutely, 600, []Row{{Key: "a", Values: []float64{40, 40}}})
	s2.Level = Decaminutely
	s2.Windows = 10
	out, err := Aggregate([]*Snapshot{s1, s2})
	if err != nil {
		t.Fatal(err)
	}
	a := out.Find("a")
	if math.Abs(a.Values[0]-25) > 1e-9 || math.Abs(a.Values[1]-25) > 1e-9 {
		t.Errorf("a = %v", a.Values)
	}
	if out.Windows != 20 {
		t.Errorf("windows = %d", out.Windows)
	}
}

func TestAggregateErrors(t *testing.T) {
	if _, err := Aggregate(nil); err != ErrNothingToAgg {
		t.Errorf("empty: %v", err)
	}
	s1 := snap("x", Minutely, 0, nil)
	s2 := snap("x", Hourly, 0, nil)
	if _, err := Aggregate([]*Snapshot{s1, s2}); err != ErrMixedLevels {
		t.Errorf("mixed: %v", err)
	}
	s3 := snap("x", Minutely, 0, nil)
	s3.Columns = []string{"hits", "other"}
	if _, err := Aggregate([]*Snapshot{s1, s3}); err != ErrSchemaChange {
		t.Errorf("schema: %v", err)
	}
	y := snap("x", Yearly, 0, nil)
	y.Level = Yearly
	if _, err := Aggregate([]*Snapshot{y}); err != ErrMixedLevels {
		t.Errorf("beyond max: %v", err)
	}
}

func TestSortByColumn(t *testing.T) {
	s := snap("x", Minutely, 0, []Row{
		{Key: "low", Values: []float64{1, 0}},
		{Key: "high", Values: []float64{9, 0}},
		{Key: "mid", Values: []float64{5, 0}},
	})
	s.SortByColumn("hits")
	if s.Rows[0].Key != "high" || s.Rows[2].Key != "low" {
		t.Errorf("order: %v %v %v", s.Rows[0].Key, s.Rows[1].Key, s.Rows[2].Key)
	}
	// Unknown column: no-op, no panic.
	s.SortByColumn("bogus")
}

func TestValueLookup(t *testing.T) {
	s := snap("x", Minutely, 0, []Row{{Key: "a", Values: []float64{3, 4}}})
	r := s.Find("a")
	if v, ok := s.Value(r, "qnames"); !ok || v != 4 {
		t.Errorf("value = %f %v", v, ok)
	}
	if _, ok := s.Value(r, "none"); ok {
		t.Error("bogus column found")
	}
	if s.Find("zzz") != nil {
		t.Error("phantom row")
	}
}

func TestStorePutGetList(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, start := range []int64{60, 0, 120} {
		if err := st.Put(snap("srvip", Minutely, start, []Row{{Key: "k", Values: []float64{1, 2}}})); err != nil {
			t.Fatal(err)
		}
	}
	starts, err := st.List("srvip", Minutely)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(starts, []int64{0, 60, 120}) {
		t.Errorf("starts = %v", starts)
	}
	got, err := st.Get("srvip", Minutely, 60)
	if err != nil {
		t.Fatal(err)
	}
	if got.Start != 60 || got.Aggregation != "srvip" || len(got.Rows) != 1 {
		t.Errorf("got = %+v", got)
	}
	if _, err := st.Get("srvip", Minutely, 999); err == nil {
		t.Error("phantom file")
	}
}

func TestStoreCascade(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// 10 minutely files fill one decaminutely window.
	for i := int64(0); i < 10; i++ {
		s := snap("srvip", Minutely, i*60, []Row{{Key: "k", Values: []float64{float64(i + 1), 10}}})
		if err := st.Put(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Cascade("srvip", 600); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get("srvip", Decaminutely, 0)
	if err != nil {
		t.Fatal(err)
	}
	k := got.Find("k")
	if k == nil || math.Abs(k.Values[0]-5.5) > 1e-9 { // mean of 1..10
		t.Errorf("aggregated = %+v", got)
	}
	// An open window (now too early) must not aggregate.
	if err := st.Put(snap("srvip", Minutely, 600, nil)); err != nil {
		t.Fatal(err)
	}
	if err := st.Cascade("srvip", 900); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get("srvip", Decaminutely, 600); err == nil {
		t.Error("open window aggregated")
	}
	// Cascade is idempotent.
	if err := st.Cascade("srvip", 600); err != nil {
		t.Fatal(err)
	}
}

func TestStoreRetention(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 20; i++ {
		if err := st.Put(snap("srvip", Minutely, i*60, []Row{{Key: "k", Values: []float64{1, 1}}})); err != nil {
			t.Fatal(err)
		}
	}
	st.Retain[Minutely] = 5
	// Nothing aggregated yet: retention must keep everything.
	if err := st.Retention("srvip"); err != nil {
		t.Fatal(err)
	}
	starts, _ := st.List("srvip", Minutely)
	if len(starts) != 20 {
		t.Fatalf("unaggregated files deleted: %d left", len(starts))
	}
	// Aggregate the first decaminutely window, then retention may delete
	// its minutely inputs.
	if err := st.Cascade("srvip", 600); err != nil {
		t.Fatal(err)
	}
	if err := st.Retention("srvip"); err != nil {
		t.Fatal(err)
	}
	starts, _ = st.List("srvip", Minutely)
	if len(starts) != 10 {
		t.Errorf("%d minutely files left, want 10 (second window unaggregated)", len(starts))
	}
	for _, s := range starts {
		if s < 600 {
			t.Errorf("aggregated input %d not deleted", s)
		}
	}
}
