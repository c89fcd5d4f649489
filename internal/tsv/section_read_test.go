package tsv

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// errClass folds a decode error into the classes callers tell apart.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrUnknownColumn):
		return "unknown-column"
	case errors.Is(err, ErrBadColumnar), errors.Is(err, ErrBadFile), errors.Is(err, ErrCorruptSnapshot):
		return "corrupt"
	}
	return "other: " + err.Error()
}

// fencedReader is the file as the section reader sees it, checking that
// no read reaches past the end and counting what was asked for.
type fencedReader struct {
	t     *testing.T
	data  []byte
	bytes int
	calls int
}

func (r *fencedReader) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 || off+int64(len(p)) > int64(len(r.data)) {
		r.t.Fatalf("ReadAt [%d, %d) of a %d-byte file", off, off+int64(len(p)), len(r.data))
	}
	r.bytes += len(p)
	r.calls++
	return bytes.NewReader(r.data).ReadAt(p, off)
}

// sectionPalette is the query shapes every reader test runs: none,
// three columns, key hit, key miss, where, unknown column. The names
// and the present key come from full, the file's reference decode, when
// there is one.
func sectionPalette(full *Snapshot) []*Projection {
	cols, key, floor := []string{"hits", "rtt_avg", "popular_type"}, "example.com.", 1.0
	if full != nil {
		cols = full.Columns[:min(len(full.Columns), 3)]
		if n := len(full.Rows); n > 0 {
			key = full.Rows[n/2].Key
			if len(cols) > 0 {
				floor = full.Rows[n/2].Values[0]
			}
		}
	}
	palette := []*Projection{
		nil,
		{Columns: cols},
		{Key: key},
		{Key: key, Columns: cols},
		{Key: "no-such-key"},
		{Key: "no-such-key", Columns: cols},
		{Columns: []string{"\x00nope"}},
		{Key: "no-such-key", Columns: []string{"\x00nope"}}, // errors even when the bloom rejects
		{Where: []Pred{AtLeast("\x00nope", 1)}},
	}
	if len(cols) > 0 {
		palette = append(palette,
			&Projection{Where: []Pred{AtLeast(cols[0], floor)}},
			&Projection{Columns: cols[len(cols)-1:], Where: []Pred{AtLeast(cols[0], floor)}},
			&Projection{Key: key, Where: []Pred{{Col: cols[0], Min: floor, Max: floor}}})
	}
	return palette
}

// FuzzSectionReadMatchesReference is the differential contract of the
// section-addressed reader: on arbitrary bytes and every query shape it
// returns the snapshot the frozen whole-buffer decoder returns, or an
// error of the same class; it never panics, never reads past the file
// and never sizes its scratch by a length the file cannot hold.
func FuzzSectionReadMatchesReference(f *testing.F) {
	seed := fuzzColumnarSeed()
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(seed[:len(colMagic)])
	f.Add([]byte("DNSC1\n\x00"))
	f.Add([]byte(""))
	f.Add(bytes.Repeat([]byte{0xff}, 32))
	f.Add(append([]byte(colMagic), 0xff, 0xff, 0xff, 0xff, 0x0f)) // 4 G columns in 11 bytes
	var multi bytes.Buffer
	if _, err := EncodeColumnar(randomSnapshot(3, 2100, true), &multi); err != nil {
		f.Fatal(err)
	}
	f.Add(multi.Bytes()) // three blocks per column, rows that share a key
	repeated := randomSnapshot(5, 10, false)
	repeated.Columns[2] = repeated.Columns[0]
	var rep bytes.Buffer
	if _, err := EncodeColumnar(repeated, &rep); err != nil {
		f.Fatal(err)
	}
	f.Add(rep.Bytes()) // a header that names a column twice
	f.Fuzz(func(t *testing.T, data []byte) {
		full, _ := refDecodeColumnar(data, nil, nil)
		for i, proj := range sectionPalette(full) {
			want, wantErr := refDecodeColumnar(data, proj, nil)
			src := &fencedReader{t: t, data: data}
			cf := new(colFile)
			gotErr := cf.open(src, int64(len(data)), proj, nil)
			if g, w := errClass(gotErr), errClass(wantErr); g != w {
				t.Fatalf("shape %d: reader says %s (%v), reference %s (%v)", i, g, gotErr, w, wantErr)
			}
			if gotErr == nil {
				sameSnapshot(t, want, cf.snapshot())
			}
			// Two windows may each be re-read while doubling, and every
			// section is read at most once more.
			if limit := 4*len(data) + 2*colProbeBytes; src.bytes > limit || cap(cf.arena) > limit {
				t.Fatalf("shape %d: read %d bytes into a %d-byte arena for a %d-byte file",
					i, src.bytes, cap(cf.arena), len(data))
			}
		}
	})
}

// rectangular reports whether a decoded snapshot gives one kind per
// column and one value per column in every row.
func rectangular(s *Snapshot) bool {
	for _, r := range s.Rows {
		if len(r.Values) != len(s.Columns) {
			return false
		}
	}
	return len(s.Kinds) == len(s.Columns)
}

// sameFold compares two accumulators' state: schema, keys in slot
// order, totals, presence, every sum (bit for bit, any NaN equal to any
// NaN, as in sameRows) and every mode tally.
func sameFold(t *testing.T, what string, want, got *accumulator) {
	t.Helper()
	if !slices.Equal(want.cols, got.cols) || !slices.Equal(want.kinds, got.kinds) ||
		!slices.Equal(want.keys, got.keys) || !slices.Equal(want.present, got.present) ||
		want.files != got.files || want.windows != got.windows ||
		want.totalBefore != got.totalBefore || want.totalAfter != got.totalAfter {
		t.Fatalf("%s: fold state %q %v %q %v, want %q %v %q %v", what,
			got.cols, got.kinds, got.keys, got.present, want.cols, want.kinds, want.keys, want.present)
	}
	for i, w := range want.sum {
		if g := got.sum[i]; math.Float64bits(w) != math.Float64bits(g) && !(math.IsNaN(w) && math.IsNaN(g)) {
			t.Fatalf("%s: sum cell %d is %v, want %v", what, i, g, w)
		}
	}
	type tally struct {
		cell int
		bits uint64
	}
	modes := func(a *accumulator) map[tally]int {
		m := map[tally]int{}
		for c, n := range a.modes {
			m[tally{c.cell, math.Float64bits(c.v)}] += n
		}
		return m
	}
	if w, g := modes(want), modes(got); !reflect.DeepEqual(w, g) {
		t.Fatalf("%s: mode tallies %v, want %v", what, g, w)
	}
}

// FuzzTSVReadMatchesReference is the differential contract of the text
// codec's reader: on arbitrary bytes and every query shape it returns
// the snapshot that the frozen scanner loop and applyProjection return,
// or an error of the same class; it reads the file once and decodes no
// columnar block; and folding what it read leaves an accumulator
// exactly as folding the reference snapshot does.
//
// One difference is deliberate. A file the reference accepts although
// its snapshot is not rectangular — not exactly one kind per column, or
// a row read under an earlier #key line of another width — is
// ErrBadFile: projecting or folding that snapshot indexed out of range.
func FuzzTSVReadMatchesReference(f *testing.F) {
	f.Add(fuzzSnapshotSeed())
	var multi bytes.Buffer
	x := xorshift(5)
	if _, err := hostileSnapshot(&x, 0, 40, 3, true).WriteTo(&multi); err != nil {
		f.Fatal(err)
	}
	f.Add(multi.Bytes()) // NaN, -0, ±Inf, a Mode column, rows that share a key
	f.Add([]byte("#key\thits\tnxd\n#kind\tc\na\t1\t2\n#stats\ttotal_before=1\ttotal_after=1\twindows=1\n"))
	f.Add([]byte("#key\thits\na\t1\n#key\thits\tnxd\n#kind\tc\tc\n#stats\ttotal_before=1\ttotal_after=1\twindows=1\n"))
	f.Add([]byte("#key\ta\tb\r\n#kind\tm\tx\n\n# note\nk\t1\t2e3\r\nk\t0x1p-2\tNaN\n#stats\twindows=2\tz=7\ttotal_before=1\ttotal_after=0"))
	f.Add([]byte("#stats\ttotal_before=1\ttotal_after=1\twindows=1\n#key\t\n#kind\t\n\t5\n"))
	f.Add([]byte("#key\thits\tnxd\thits\n#kind\tc\tg\tc\na\t1\t2\t3\n#stats\ttotal_before=1\ttotal_after=1\twindows=1\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		full, refErr := refReadText(bytes.NewReader(data))
		damaged := refErr == nil && !rectangular(full)
		if damaged {
			full = nil
		}
		for i, proj := range sectionPalette(full) {
			src := &fencedReader{t: t, data: data}
			cf := new(colFile)
			gotErr := cf.openText(src, int64(len(data)), proj, nil)
			if damaged {
				if !errors.Is(gotErr, ErrBadFile) {
					t.Fatalf("shape %d: reader says %v for a file without one kind and one value per column", i, gotErr)
				}
				continue
			}
			want, wantErr := full, refErr
			if refErr == nil {
				want, wantErr = applyProjection(full, proj)
			}
			if g, w := errClass(gotErr), errClass(wantErr); g != w {
				t.Fatalf("shape %d: reader says %s (%v), reference %s (%v)", i, g, gotErr, w, wantErr)
			}
			if src.calls != min(len(data), 1) || src.bytes != len(data) || cf.counts != (colStats{readBytes: uint64(len(data)), readCalls: uint64(src.calls)}) {
				t.Fatalf("shape %d: %d reads of %d bytes, counters %+v, for a %d-byte file", i, src.calls, src.bytes, cf.counts, len(data))
			}
			if gotErr != nil {
				continue
			}
			sameSnapshot(t, want, cf.snapshot())
			// Twice, so that the second fold finds every key held.
			fromSnap, fromFile := newAccumulator(), newAccumulator()
			for range 2 {
				if err := fromSnap.foldSnapshot(want); err != nil {
					t.Fatal(err)
				}
				if err := fromFile.foldFile(cf); err != nil {
					t.Fatal(err)
				}
			}
			sameFold(t, fmt.Sprintf("shape %d", i), fromSnap, fromFile)
			fromSnap.release()
			fromFile.release()
		}
	})
}

// TestTSVLineCap: a line reaches the reader's 16 MiB cap exactly where
// it reached the scanner's, with or without its newline.
func TestTSVLineCap(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 16 MiB lines")
	}
	const stats = "#stats\ttotal_before=1\ttotal_after=1\twindows=1\t"
	for _, n := range []int{maxLine - 2, maxLine - 1, maxLine} {
		for _, tail := range []string{"\n", "\r\n", ""} {
			line := stats + strings.Repeat("x", n-len(stats)) // the unterminated form ends the file
			if tail != "" {
				line = "#" + strings.Repeat("x", n-1) + tail + stats + "\n"
			}
			data := []byte("#key\thits\n#kind\tc\na\t1\n" + line)
			_, wantErr := refReadText(bytes.NewReader(data))
			_, gotErr := Read(bytes.NewReader(data))
			t.Logf("line of %d bytes, tail %q: %v", n, tail, gotErr)
			if g, w := errClass(gotErr), errClass(wantErr); g != w {
				t.Fatalf("line of %d bytes, tail %q: reader says %s (%v), reference %s (%v)", n, tail, g, gotErr, w, wantErr)
			}
		}
	}
}

// colLayout is where the sections of a valid file start.
type colLayout struct {
	kind0   int // kind byte of column 0
	keyLen  int // first byte of the key-section length
	keyOff  int
	metaOff int // bloom k
	dirOff  int // block-rows varint
	sectOff []int64
	sectLen []int
	footOff int
}

func layoutOf(t *testing.T, data []byte) colLayout {
	t.Helper()
	cf := new(colFile)
	if err := cf.open(bytes.NewReader(data), int64(len(data)), nil, nil); err != nil {
		t.Fatal(err)
	}
	l := colLayout{
		keyOff:  int(cf.keyOff),
		metaOff: int(cf.keyOff) + cf.keyLen,
		sectOff: append([]int64(nil), cf.sectOff...),
		sectLen: append([]int(nil), cf.sectLen...),
		footOff: int(cf.footOff),
	}
	// magic, a one-byte column count, a one-byte name length, the name.
	l.kind0 = len(colMagic) + 2 + len(cf.names[0])
	l.keyLen = l.keyOff - uvarintLen(uint64(cf.keyLen))
	// The directory starts after k, the word count and the words.
	l.dirOff = l.metaOff + 1 + uvarintLen(uint64(len(cf.bloom)/8)) + len(cf.bloom)
	return l
}

// TestSectionBoundaryCorruption damages a valid file at every section
// boundary and asks every query shape for it, materialized and folded:
// structural damage is ErrCorruptSnapshot for each of them — the
// point lookup the bloom rejects included, which reads no key or value
// section but must not trust a file whose frame is broken — and damage
// inside one column's section is corrupt for exactly the shapes that
// read the column, as it was for the whole-buffer decoder.
func TestSectionBoundaryCorruption(t *testing.T) {
	snap := randomSnapshot(31, 2500, true)
	valid := encodeToBytes(t, snap)
	l := layoutOf(t, valid)
	full, err := refDecodeColumnar(valid, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	shapes := sectionPalette(full)

	type damage struct {
		name       string
		structural bool // corrupt whatever the query
		data       []byte
	}
	var cases []damage
	cut := func(name string, at int) {
		cases = append(cases, damage{"cut " + name, true, valid[:at]})
	}
	flip := func(name string, structural bool, at int, to byte) {
		mut := append([]byte(nil), valid...)
		if mut[at] == to {
			t.Fatalf("%s: byte %d is already %#x", name, at, to)
		}
		mut[at] = to
		cases = append(cases, damage{"flip " + name, structural, mut})
	}
	cut("inside magic", 3)
	cut("after magic", len(colMagic))
	cut("inside header", l.kind0)
	cut("inside key-section length", l.keyLen+1)
	cut("at key section", l.keyOff)
	cut("inside key section", l.keyOff+(l.metaOff-l.keyOff)/2)
	cut("at bloom", l.metaOff)
	cut("inside bloom size", l.metaOff+2)
	cut("inside bloom bits", l.dirOff-100)
	cut("at directory", l.dirOff)
	cut("inside directory", l.dirOff+3)
	for j := range l.sectOff {
		cut("at section "+snap.Columns[j], int(l.sectOff[j]))
		cut("inside section "+snap.Columns[j], int(l.sectOff[j])+l.sectLen[j]/2)
	}
	cut("at footer", l.footOff)
	cut("inside footer", l.footOff+2)
	cases = append(cases, damage{"trailing byte", true, append(append([]byte(nil), valid...), 0)})

	flip("magic", true, 0, 'X')
	flip("column kind", true, l.kind0, '?')
	flip("key-section length", true, l.keyLen, valid[l.keyLen]^0x01)
	flip("bloom k", true, l.metaOff, 0xff)
	flip("bloom size", true, l.metaOff+1, valid[l.metaOff+1]^0x01) // an odd word count
	flip("block rows", true, l.dirOff+1, 0x00)                     // 1024 is 0x80 0x08: now a two-byte zero
	flip("section length", true, l.dirOff+2, valid[l.dirOff+2]^0x01)
	flip("footer", true, l.footOff, 'X')
	for j := range l.sectOff {
		// The encoding tag of the section's first block.
		flip("section "+snap.Columns[j], false, int(l.sectOff[j])+16, 0x7f)
	}

	st, err := NewColumnarStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(st.Dir(), st.FileName(snap))
	for _, c := range cases {
		if err := os.WriteFile(path, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		sawCorrupt := false
		for i, proj := range shapes {
			_, refErr := refDecodeColumnar(c.data, proj, nil)
			want := errClass(refErr)
			if c.structural && want != "corrupt" {
				t.Fatalf("%s, shape %d: the reference decoder says %s", c.name, i, want)
			}
			sawCorrupt = sawCorrupt || want == "corrupt"
			_, getErr := st.GetProjected(snap.Aggregation, snap.Level, snap.Start, proj)
			acc := newAccumulator()
			foldErr := st.fold(fileKey{snap.Aggregation, snap.Level, snap.Start}, proj, acc, false)
			acc.release()
			for how, err := range map[string]error{"GetProjected": getErr, "fold": foldErr} {
				if got := errClass(err); got != want {
					t.Errorf("%s, shape %d, %s: %s (%v), want %s", c.name, i, how, got, err, want)
				}
				if want == "corrupt" && !errors.Is(err, ErrCorruptSnapshot) {
					t.Errorf("%s, shape %d, %s: %v is not ErrCorruptSnapshot", c.name, i, how, err)
				}
			}
		}
		if !sawCorrupt {
			t.Errorf("%s: no query shape noticed", c.name)
		}
	}

	// The intact file answers every shape, the misses from the bloom.
	if err := os.WriteFile(path, valid, 0o644); err != nil {
		t.Fatal(err)
	}
	skips := st.BloomSkips()
	for i, proj := range shapes {
		want, wantErr := refDecodeColumnar(valid, proj, nil)
		got, err := st.GetProjected(snap.Aggregation, snap.Level, snap.Start, proj)
		if errClass(err) != errClass(wantErr) {
			t.Fatalf("intact, shape %d: %v, want %v", i, err, wantErr)
		}
		if err == nil {
			sameSnapshot(t, want, got)
		}
	}
	if st.BloomSkips() == skips {
		t.Error("no lookup of the palette was rejected by the bloom")
	}
}

// TestSectionReadWindowGrows covers the two structures without a length
// prefix when they outgrow the first read: a header wider than the
// probe, and a bloom + directory wider than the guess (a file whose
// rows share a handful of keys has a small bloom, one with more columns
// than the guess allows for has a long directory).
func TestSectionReadWindowGrows(t *testing.T) {
	wide := &Snapshot{Aggregation: "wide", Windows: 1}
	for c := 0; c < 300; c++ {
		wide.Columns = append(wide.Columns, "a-rather-long-column-name-"+string(rune('a'+c%26))+string(rune('a'+c/26)))
		wide.Kinds = append(wide.Kinds, Gauge)
	}
	for r := 0; r < 5; r++ {
		vals := make([]float64, len(wide.Columns))
		for c := range vals {
			vals[c] = float64(r*1000+c) + 0.5
		}
		wide.Rows = append(wide.Rows, Row{Key: "key-" + string(rune('a'+r)), Values: vals})
	}
	data := encodeToBytes(t, wide)
	src := &fencedReader{t: t, data: data}
	cf := new(colFile)
	proj := &Projection{Columns: []string{wide.Columns[299], wide.Columns[0]}, Key: "key-c"}
	if err := cf.open(src, int64(len(data)), proj, nil); err != nil {
		t.Fatal(err)
	}
	want, err := refDecodeColumnar(data, proj, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameSnapshot(t, want, cf.snapshot())
	if len(want.Rows) != 1 || want.Rows[0].Values[0] != 2299.5 {
		t.Fatalf("rows = %+v", want.Rows)
	}
	if int(cf.keyOff) <= colProbeBytes {
		t.Fatalf("header ends at %d: inside the first probe, nothing grew", cf.keyOff)
	}
}

// TestSelectiveReadBytes holds the reader to what a query needs, with
// the store's own read counters: a point miss on files it has not read
// before reads the header, the bloom and the footer — a few percent of
// the files in range — and nothing once the store holds them open with
// their frames; a 3-of-40-column top-k the key section and three column
// sections; and a full Get every byte exactly once. Each cold row runs
// on a store of its own over the same files, so no row finds a file a
// row before it left open.
func TestSelectiveReadBytes(t *testing.T) {
	const windows = 6
	st := benchStore(t, BackendColumnar, windows, 2500)
	var inRange uint64
	for w := 0; w < windows; w++ {
		fi, err := os.Stat(filepath.Join(st.Dir(), st.FileName(&Snapshot{Aggregation: "srvip", Start: int64(w) * 60})))
		if err != nil {
			t.Fatal(err)
		}
		inRange += uint64(fi.Size())
	}
	read := func(st *Store, q Query) (bytes, calls uint64) {
		b0, c0 := st.ReadBytes(), st.ReadCalls()
		if _, err := RunQuery(st, q); err != nil {
			t.Fatal(err)
		}
		return st.ReadBytes() - b0, st.ReadCalls() - c0
	}
	cold := func() *Store {
		fresh, err := NewColumnarStore(st.Dir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fresh.Close() })
		return fresh
	}
	miss := Query{Agg: "srvip", Key: "absent.invalid.", Columns: []string{"hits", "f05", "f20"}}
	for _, c := range []struct {
		name     string
		q        Query
		maxShare float64
		maxCalls uint64 // per file
	}{
		{"point miss", miss, 0.05, 3},
		{"point hit", Query{Agg: "srvip", Key: "obj-01234", Columns: []string{"hits", "f05", "f20"}}, 0.30, 7},
		{"top-k of 3 columns", Query{Agg: "srvip", Columns: []string{"hits", "f05", "f20"}, OrderBy: "hits", K: 10}, 0.30, 7},
		{"where scan", Query{Agg: "srvip", Columns: []string{"f05"}, Where: []Pred{AtLeast("hits", 99000)}}, 0.30, 6},
	} {
		bytes, calls := read(cold(), c.q)
		share := float64(bytes) / float64(inRange)
		t.Logf("%s: %d bytes of %d (%.1f%%) in %d reads", c.name, bytes, inRange, 100*share, calls)
		if share > c.maxShare {
			t.Errorf("%s read %.1f%% of the bytes in range, budget %.0f%%", c.name, 100*share, 100*c.maxShare)
		}
		if calls > c.maxCalls*windows {
			t.Errorf("%s took %d reads over %d files, budget %d per file", c.name, calls, windows, c.maxCalls)
		}
	}
	warm := cold()
	read(warm, miss)
	if bytes, calls := read(warm, miss); bytes != 0 || calls != 0 {
		t.Errorf("point miss on a warm file table read %d bytes in %d reads: the kept frame's bloom answers it", bytes, calls)
	}
	b0, c0 := st.ReadBytes(), st.ReadCalls()
	for w := 0; w < windows; w++ {
		if _, err := st.Get("srvip", Minutely, int64(w)*60); err != nil {
			t.Fatal(err)
		}
	}
	if bytes, calls := st.ReadBytes()-b0, st.ReadCalls()-c0; bytes != inRange || calls != windows {
		t.Errorf("full Get read %d bytes of %d in %d reads: every byte is needed, once, and a file is one read",
			bytes, inRange, calls)
	}
}
