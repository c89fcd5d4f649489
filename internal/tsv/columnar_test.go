package tsv

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"
)

// xorshift is the deterministic PRNG used by the codec and golden
// tests, so fixtures are identical across runs and machines.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

func (x *xorshift) float() float64 { return float64(x.next()%1_000_000) / 1000 }

// randomSnapshot builds a deterministic snapshot: a mix of integral
// counter columns, fractional gauges, a mode column, and keys with
// optional duplicates.
func randomSnapshot(seed uint64, rows int, dupKeys bool) *Snapshot {
	x := xorshift(seed | 1)
	s := &Snapshot{
		Aggregation: "test",
		Level:       Minutely,
		Start:       60,
		Columns:     []string{"hits", "nxd", "delay", "ok_frac", "ttl_mode"},
		Kinds:       []Kind{Counter, Counter, Gauge, Gauge, Mode},
		TotalBefore: 100000,
		TotalAfter:  90000,
		Windows:     1,
	}
	ttls := []float64{60, 300, 3600, 86400}
	for i := 0; i < rows; i++ {
		key := "obj-" + string(rune('a'+i%26)) + "-"
		for n := i; ; n /= 10 {
			key += string(rune('0' + n%10))
			if n < 10 {
				break
			}
		}
		if dupKeys && i%7 == 3 {
			key = "dup-key"
		}
		s.Rows = append(s.Rows, Row{Key: key, Values: []float64{
			float64(x.next() % 100000),
			float64(x.next() % 500),
			x.float(),
			float64(x.next()%1000) / 1000,
			ttls[x.next()%4],
		}})
	}
	return s
}

func encodeToBytes(t testing.TB, s *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := EncodeColumnar(s, &buf); err != nil {
		t.Fatalf("EncodeColumnar: %v", err)
	}
	return buf.Bytes()
}

// sameSnapshot compares the logical content of two snapshots.
func sameSnapshot(t *testing.T, want, got *Snapshot) {
	t.Helper()
	if !reflect.DeepEqual(want.Columns, got.Columns) {
		t.Fatalf("columns: want %v got %v", want.Columns, got.Columns)
	}
	if !reflect.DeepEqual(want.Kinds, got.Kinds) {
		t.Fatalf("kinds: want %v got %v", want.Kinds, got.Kinds)
	}
	if want.TotalBefore != got.TotalBefore || want.TotalAfter != got.TotalAfter || want.Windows != got.Windows {
		t.Fatalf("stats: want %d/%d/%d got %d/%d/%d",
			want.TotalBefore, want.TotalAfter, want.Windows,
			got.TotalBefore, got.TotalAfter, got.Windows)
	}
	if len(want.Rows) != len(got.Rows) {
		t.Fatalf("rows: want %d got %d", len(want.Rows), len(got.Rows))
	}
	for i := range want.Rows {
		if want.Rows[i].Key != got.Rows[i].Key {
			t.Fatalf("row %d key: want %q got %q", i, want.Rows[i].Key, got.Rows[i].Key)
		}
		wv, gv := want.Rows[i].Values, got.Rows[i].Values
		if len(wv) != len(gv) {
			t.Fatalf("row %d width: want %d got %d", i, len(wv), len(gv))
		}
		for j := range wv {
			// Bit-exact, including NaN and signed zero.
			if math.Float64bits(wv[j]) != math.Float64bits(gv[j]) {
				t.Fatalf("row %d col %d: want %v got %v", i, j, wv[j], gv[j])
			}
		}
	}
}

func TestColumnarRoundTrip(t *testing.T) {
	cases := map[string]*Snapshot{
		"typical":    randomSnapshot(7, 500, false),
		"dup-keys":   randomSnapshot(8, 300, true),
		"multiblock": randomSnapshot(9, 3000, false),
		"empty-rows": {
			Aggregation: "x", Columns: []string{"hits"}, Kinds: []Kind{Counter},
			TotalBefore: 1, TotalAfter: 1, Windows: 1,
		},
		"one-row": {
			Columns: []string{"a", "b"}, Kinds: []Kind{Counter, Gauge}, Windows: 3,
			Rows: []Row{{Key: "k", Values: []float64{42, 0.5}}},
		},
		"hostile-values": {
			Columns: []string{"v"}, Kinds: []Kind{Gauge}, Windows: 1,
			Rows: []Row{
				{Key: "nan", Values: []float64{math.NaN()}},
				{Key: "neg-zero", Values: []float64{math.Copysign(0, -1)}},
				{Key: "pos-zero", Values: []float64{0}},
				{Key: "inf", Values: []float64{math.Inf(1)}},
				{Key: "neg-inf", Values: []float64{math.Inf(-1)}},
				{Key: "big-int", Values: []float64{1 << 52}},
				{Key: "neg-int", Values: []float64{-123456}},
				{Key: "tiny", Values: []float64{5e-324}},
			},
		},
		"empty-key": {
			Columns: []string{"v"}, Kinds: []Kind{Counter}, Windows: 1,
			Rows: []Row{{Key: "", Values: []float64{1}}, {Key: "x", Values: []float64{2}}},
		},
	}
	for name, snap := range cases {
		t.Run(name, func(t *testing.T) {
			data := encodeToBytes(t, snap)
			got, err := DecodeColumnar(data)
			if err != nil {
				t.Fatalf("DecodeColumnar: %v", err)
			}
			sameSnapshot(t, snap, got)
		})
	}
}

func TestColumnarDeterministic(t *testing.T) {
	snap := randomSnapshot(11, 1500, true)
	a := encodeToBytes(t, snap)
	b := encodeToBytes(t, snap)
	if !bytes.Equal(a, b) {
		t.Fatal("same snapshot encoded to different bytes")
	}
}

func TestColumnarSmallerThanTSV(t *testing.T) {
	snap := randomSnapshot(13, 5000, false)
	var tsvBuf bytes.Buffer
	if _, err := snap.WriteTo(&tsvBuf); err != nil {
		t.Fatal(err)
	}
	col := encodeToBytes(t, snap)
	if len(col) >= tsvBuf.Len() {
		t.Fatalf("columnar %d bytes >= TSV %d bytes", len(col), tsvBuf.Len())
	}
	t.Logf("columnar %d bytes vs TSV %d bytes (%.0f%%)",
		len(col), tsvBuf.Len(), 100*float64(len(col))/float64(tsvBuf.Len()))
}

// TestProjectionEquivalence is the differential contract: the columnar
// fast path must return exactly what the reference applyProjection
// computes over the fully decoded snapshot, for random projections and
// predicates.
func TestProjectionEquivalence(t *testing.T) {
	snap := randomSnapshot(17, 2500, true)
	data := encodeToBytes(t, snap)
	full, err := DecodeColumnar(data)
	if err != nil {
		t.Fatal(err)
	}
	projections := []*Projection{
		nil,
		{},
		{Columns: []string{"hits"}},
		{Columns: []string{"delay", "hits"}},
		{Columns: []string{"ttl_mode", "ok_frac", "nxd", "delay", "hits"}},
		{Key: "dup-key"},
		{Key: "no-such-key"},
		{Key: "obj-a-0", Columns: []string{"hits"}},
		{Where: []Pred{AtLeast("hits", 50000)}},
		{Where: []Pred{{Col: "hits", Min: 10000, Max: 60000}}},
		{Where: []Pred{AtLeast("hits", 50000), {Col: "nxd", Min: 0, Max: 100}}},
		{Columns: []string{"delay"}, Where: []Pred{AtLeast("hits", 80000)}},
		{Columns: []string{"hits"}, Key: "dup-key", Where: []Pred{AtLeast("hits", 0)}},
		{Where: []Pred{{Col: "ttl_mode", Min: 3600, Max: 3600}}},
		{Where: []Pred{{Col: "hits", Min: math.Inf(1), Max: math.Inf(1)}}}, // selects nothing
	}
	for i, proj := range projections {
		want, err := applyProjection(full, proj)
		if err != nil {
			t.Fatalf("proj %d: applyProjection: %v", i, err)
		}
		got, err := decodeColumnar(data, proj)
		if err != nil {
			t.Fatalf("proj %d: decodeColumnar: %v", i, err)
		}
		sameSnapshot(t, want, got)
	}
}

func TestProjectionUnknownColumn(t *testing.T) {
	snap := randomSnapshot(19, 10, false)
	data := encodeToBytes(t, snap)
	for _, proj := range []*Projection{
		{Columns: []string{"nope"}},
		{Where: []Pred{AtLeast("nope", 1)}},
		{Key: "definitely-not-present", Columns: []string{"nope"}}, // must error even on bloom skip
	} {
		if _, err := decodeColumnar(data, proj); !errors.Is(err, ErrUnknownColumn) {
			t.Fatalf("proj %+v: want ErrUnknownColumn, got %v", proj, err)
		}
		full, err := DecodeColumnar(data)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := applyProjection(full, proj); !errors.Is(err, ErrUnknownColumn) {
			t.Fatalf("applyProjection %+v: want ErrUnknownColumn, got %v", proj, err)
		}
	}
}

// TestColumnarCorruptTyped truncates and corrupts an encoded file at
// every offset: decoding must fail with a typed error (or, for benign
// bit flips, succeed) and never panic.
func TestColumnarCorruptTyped(t *testing.T) {
	snap := randomSnapshot(23, 200, true)
	data := encodeToBytes(t, snap)
	for cut := 0; cut < len(data); cut++ {
		if _, err := DecodeColumnar(data[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		} else if !errors.Is(err, ErrBadColumnar) {
			t.Fatalf("truncation at %d: untyped error %v", cut, err)
		}
	}
	// Bit flips may land in value payloads (still decodable) but must
	// never panic and must stay typed when they do error.
	for off := 0; off < len(data); off += 7 {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x55
		if _, err := DecodeColumnar(mut); err != nil && !errors.Is(err, ErrBadColumnar) {
			t.Fatalf("flip at %d: untyped error %v", off, err)
		}
	}
	// Garbage prefixes.
	for _, junk := range [][]byte{nil, {}, []byte("x"), []byte("#key\thits\n"), bytes.Repeat([]byte{0xff}, 64)} {
		if _, err := DecodeColumnar(junk); !errors.Is(err, ErrBadColumnar) {
			t.Fatalf("junk %q: want ErrBadColumnar, got %v", junk, err)
		}
	}
}

func TestColumnarStoreBloomSkip(t *testing.T) {
	st, err := NewColumnarStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	snap := randomSnapshot(29, 400, false)
	if err := st.Put(snap); err != nil {
		t.Fatal(err)
	}
	got, err := st.GetProjected("test", Minutely, 60, &Projection{Key: "absent-key"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 0 {
		t.Fatalf("absent key returned %d rows", len(got.Rows))
	}
	if st.BloomSkips() == 0 {
		t.Fatal("negative point lookup did not use the bloom index")
	}
	// A present key must come back with its row.
	key := snap.Rows[10].Key
	got, err = st.GetProjected("test", Minutely, 60, &Projection{Key: key})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 1 || got.Rows[0].Key != key {
		t.Fatalf("point lookup for %q returned %+v", key, got.Rows)
	}
}

func TestColumnarPredicatePushdownSkipsBlocks(t *testing.T) {
	// Values ascending by row, so blocks have disjoint [min, max]
	// ranges and a narrow predicate can skip most of them wholesale.
	snap := &Snapshot{
		Aggregation: "test", Level: Minutely, Start: 60,
		Columns: []string{"hits", "delay"},
		Kinds:   []Kind{Counter, Gauge},
		Windows: 1,
	}
	const rows = 8 * colBlockRows
	for i := 0; i < rows; i++ {
		snap.Rows = append(snap.Rows, Row{
			Key:    "k" + string(rune('a'+i%26)) + string(rune('0'+(i/26)%10)) + string(rune('0'+i/260)),
			Values: []float64{float64(i), float64(i) + 0.5},
		})
	}
	st, err := NewColumnarStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(snap); err != nil {
		t.Fatal(err)
	}
	lo, hi := float64(3*colBlockRows), float64(3*colBlockRows+10)
	got, err := st.GetProjected("test", Minutely, 60, &Projection{
		Columns: []string{"delay"},
		Where:   []Pred{{Col: "hits", Min: lo, Max: hi}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 11 {
		t.Fatalf("want 11 rows in [%v, %v], got %d", lo, hi, len(got.Rows))
	}
	if st.BlocksSkipped() == 0 {
		t.Fatal("narrow predicate decoded every block")
	}
	if st.BlocksDecoded() >= 8 {
		t.Fatalf("decoded %d blocks; pushdown should decode ~2 of 16", st.BlocksDecoded())
	}
}
