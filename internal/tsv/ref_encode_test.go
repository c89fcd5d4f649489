package tsv

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// The write and parse paths of both codecs as they were before ISSUE 18
// (4 KB bufio and AppendFloat per cell, sc.Text and ParseFloat per
// field, EncodeColumnar growing every buffer by doubling), frozen here
// as the references the rewritten paths are held to, byte for byte.

func refWriteTo(s *Snapshot, w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	write := func(line string) error {
		m, err := bw.WriteString(line)
		n += int64(m)
		return err
	}
	kinds := make([]string, len(s.Kinds))
	for i, k := range s.Kinds {
		switch k {
		case Counter:
			kinds[i] = "c"
		case Mode:
			kinds[i] = "m"
		default:
			kinds[i] = "g"
		}
	}
	if err := write("#key\t" + strings.Join(s.Columns, "\t") + "\n"); err != nil {
		return n, err
	}
	if err := write("#kind\t" + strings.Join(kinds, "\t") + "\n"); err != nil {
		return n, err
	}
	var buf []byte
	for _, r := range s.Rows {
		buf = append(buf[:0], r.Key...)
		for _, v := range r.Values {
			buf = append(buf, '\t')
			buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
		}
		buf = append(buf, '\n')
		m, err := bw.Write(buf)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	stats := fmt.Sprintf("#stats\ttotal_before=%d\ttotal_after=%d\twindows=%d\n",
		s.TotalBefore, s.TotalAfter, s.Windows)
	if err := write(stats); err != nil {
		return n, err
	}
	return n, bw.Flush()
}

func refRead(r io.Reader) (*Snapshot, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4<<10), 16<<20)
	s := &Snapshot{Windows: 1}
	sawStats := false
	var flat []float64
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "#key\t"):
			s.Columns = strings.Split(line, "\t")[1:]
		case strings.HasPrefix(line, "#kind\t"):
			for _, k := range strings.Split(line, "\t")[1:] {
				switch k {
				case "c":
					s.Kinds = append(s.Kinds, Counter)
				case "m":
					s.Kinds = append(s.Kinds, Mode)
				default:
					s.Kinds = append(s.Kinds, Gauge)
				}
			}
		case strings.HasPrefix(line, "#stats\t"):
			statKeys := 0
			for _, f := range strings.Split(line, "\t")[1:] {
				k, v, ok := strings.Cut(f, "=")
				if !ok {
					continue
				}
				n, err := strconv.ParseUint(v, 10, 64)
				if err != nil {
					return nil, ErrBadFile
				}
				switch k {
				case "total_before":
					s.TotalBefore = n
					statKeys++
				case "total_after":
					s.TotalAfter = n
					statKeys++
				case "windows":
					s.Windows = int(n)
					statKeys++
				}
			}
			if statKeys != 3 {
				return nil, ErrBadFile
			}
			sawStats = true
		case line == "" || strings.HasPrefix(line, "#"):
		default:
			if s.Columns == nil {
				return nil, ErrBadFile
			}
			nCols := len(s.Columns)
			tab := strings.IndexByte(line, '\t')
			if tab < 0 {
				return nil, ErrBadFile
			}
			key, rest := line[:tab], line[tab+1:]
			if len(flat)+nCols > cap(flat) {
				chunk := nCols * 256
				if chunk < 1024 {
					chunk = 1024
				}
				flat = make([]float64, 0, chunk)
			}
			start := len(flat)
			for i := 0; i < nCols; i++ {
				var f string
				if i == nCols-1 {
					if strings.IndexByte(rest, '\t') >= 0 {
						return nil, ErrBadFile
					}
					f = rest
				} else {
					t := strings.IndexByte(rest, '\t')
					if t < 0 {
						return nil, ErrBadFile
					}
					f, rest = rest[:t], rest[t+1:]
				}
				v, err := strconv.ParseFloat(f, 64)
				if err != nil {
					return nil, ErrBadFile
				}
				flat = append(flat, v)
			}
			s.Rows = append(s.Rows, Row{Key: key, Values: flat[start:len(flat):len(flat)]})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if s.Columns == nil || !sawStats {
		return nil, ErrBadFile
	}
	return s, nil
}

func refEncodeColumnar(s *Snapshot, w io.Writer) (int64, error) {
	ncols := len(s.Columns)
	buf := make([]byte, 0, 64+len(s.Rows)*(8+ncols*4))
	buf = append(buf, colMagic...)
	buf = binary.AppendUvarint(buf, uint64(ncols))
	for i, name := range s.Columns {
		buf = binary.AppendUvarint(buf, uint64(len(name)))
		buf = append(buf, name...)
		buf = append(buf, colKindByte(s.Kinds[i]))
	}
	nrows := len(s.Rows)
	buf = binary.AppendUvarint(buf, uint64(nrows))
	buf = binary.AppendUvarint(buf, s.TotalBefore)
	buf = binary.AppendUvarint(buf, s.TotalAfter)
	buf = binary.AppendUvarint(buf, uint64(s.Windows))

	dictID := make(map[string]int, nrows)
	var dictKeys []string
	ids := make([]int, nrows)
	for i := range s.Rows {
		k := s.Rows[i].Key
		id, ok := dictID[k]
		if !ok {
			id = len(dictKeys)
			dictID[k] = id
			dictKeys = append(dictKeys, k)
		}
		ids[i] = id
	}
	var keySect []byte
	keySect = binary.AppendUvarint(keySect, uint64(len(dictKeys)))
	concatLen := 0
	for _, k := range dictKeys {
		concatLen += len(k)
	}
	keySect = binary.AppendUvarint(keySect, uint64(concatLen))
	for _, k := range dictKeys {
		keySect = append(keySect, k...)
	}
	for _, k := range dictKeys {
		keySect = binary.AppendUvarint(keySect, uint64(len(k)))
	}
	if len(dictKeys) == nrows {
		keySect = append(keySect, 0)
	} else {
		keySect = append(keySect, 1)
		for _, id := range ids {
			keySect = binary.AppendUvarint(keySect, uint64(id))
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(keySect)))
	buf = append(buf, keySect...)

	bloom := newColBloom(len(dictKeys))
	for _, k := range dictKeys {
		bloom.add(k)
	}
	buf = append(buf, byte(bloom.k))
	buf = binary.AppendUvarint(buf, uint64(len(bloom.words)))
	for _, wd := range bloom.words {
		buf = binary.LittleEndian.AppendUint64(buf, wd)
	}

	sects := make([][]byte, ncols)
	colVals := make([]float64, nrows)
	for c := 0; c < ncols; c++ {
		for r := 0; r < nrows; r++ {
			colVals[r] = s.Rows[r].Values[c]
		}
		for off := 0; off < len(colVals); off += colBlockRows {
			sects[c] = refEncodeBlock(sects[c], colVals[off:min(off+colBlockRows, len(colVals))])
		}
	}
	buf = binary.AppendUvarint(buf, colBlockRows)
	for _, sect := range sects {
		buf = binary.AppendUvarint(buf, uint64(len(sect)))
	}
	for _, sect := range sects {
		buf = append(buf, sect...)
	}
	buf = append(buf, colFooter...)
	n, err := w.Write(buf)
	return int64(n), err
}

func refEncodeBlock(out []byte, vals []float64) []byte {
	mn, mx := math.Inf(1), math.Inf(-1)
	hasNaN := false
	firstBits := math.Float64bits(vals[0])
	allConst := true
	allInt := true
	for _, v := range vals {
		if math.IsNaN(v) {
			hasNaN = true
			allInt = false
			continue
		}
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
		if math.Float64bits(v) != firstBits {
			allConst = false
		}
		if allInt && !integralFloat(v) {
			allInt = false
		}
	}
	if hasNaN {
		mn, mx = math.NaN(), math.NaN()
		allConst = false
	}
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(mn))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(mx))
	switch {
	case allConst:
		out = append(out, encConst)
		out = binary.AppendUvarint(out, 8)
		out = binary.LittleEndian.AppendUint64(out, firstBits)
	case allInt:
		out = append(out, encIntDelta)
		var payload []byte
		prev := int64(0)
		for _, v := range vals {
			iv := int64(v)
			payload = binary.AppendUvarint(payload, zigzag(iv-prev))
			prev = iv
		}
		out = binary.AppendUvarint(out, uint64(len(payload)))
		out = append(out, payload...)
	default:
		out = append(out, encRaw)
		out = binary.AppendUvarint(out, uint64(8*len(vals)))
		for _, v := range vals {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
	}
	return out
}

// codecSnapshots is what both encoders are compared on: hostile floats,
// duplicate keys, integer columns wide enough for multi-byte deltas,
// more rows than one block, no rows, and no columns at all.
func codecSnapshots() []*Snapshot {
	x := new(xorshift)
	*x = 18
	snaps := []*Snapshot{
		hostileSnapshot(x, 0, 0, 1, false),
		hostileSnapshot(x, 60, 1, 1, false),
		hostileSnapshot(x, 120, 700, 3, true),
		hostileSnapshot(x, 180, 2600, 1, false),
		randomSnapshot(7, 3000, true),
		randomSnapshot(8, 1024, false),
		{Aggregation: "bare", Windows: 1, TotalBefore: 3},
	}
	wide := &Snapshot{Aggregation: "wide", Columns: []string{"n", "big"}, Kinds: []Kind{Counter, Gauge}, Windows: 1}
	for i := 0; i < 1500; i++ {
		wide.Rows = append(wide.Rows, Row{
			Key:    fmt.Sprintf("k%d", i),
			Values: []float64{float64(x.next() % 2_000_000), float64(int64(x.next()>>11)) - 1<<52},
		})
	}
	return append(snaps, wide)
}

// TestEncodersMatchReference: the text a snapshot is written as, the
// snapshot that text is read as, and the DNSC1 bytes are those of the
// frozen codecs.
func TestEncodersMatchReference(t *testing.T) {
	for _, s := range codecSnapshots() {
		name := fmt.Sprintf("%s@%d", s.Aggregation, s.Start)
		var want, got bytes.Buffer
		wn, werr := refWriteTo(s, &want)
		gn, gerr := s.WriteTo(&got)
		if werr != nil || gerr != nil || wn != gn || !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("%s: WriteTo wrote %d bytes (%v), the reference %d (%v), or they differ", name, gn, gerr, wn, werr)
		}
		wantSnap, werr := refRead(bytes.NewReader(want.Bytes()))
		gotSnap, gerr := Read(bytes.NewReader(want.Bytes()))
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("%s: Read says %v, the reference %v", name, gerr, werr)
		}
		if werr == nil {
			sameRows(t, name, wantSnap.Rows, gotSnap.Rows)
			wantSnap.Rows, gotSnap.Rows = nil, nil
			if !reflect.DeepEqual(wantSnap, gotSnap) {
				t.Fatalf("%s: Read gives %+v, the reference %+v", name, gotSnap, wantSnap)
			}
		}
		want.Reset()
		got.Reset()
		wn, werr = refEncodeColumnar(s, &want)
		gn, gerr = EncodeColumnar(s, &got)
		if werr != nil || gerr != nil || wn != gn || !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("%s: EncodeColumnar wrote %d bytes (%v), the reference %d (%v), or they differ", name, gn, gerr, wn, werr)
		}
	}
}

// cellTable is the part of the cell space a fuzzer would take long to
// find: the integers either side of the plain-digits rule, and the
// values no integer path may claim.
func cellTable() []float64 {
	vals := []float64{
		math.Copysign(0, -1), 999999.5, 1e6, 1e6 - 1, 1e6 + 1, 1 << 53, 1<<53 - 1, 1<<53 + 2,
		math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, 2.2250738585072014e-308, -1, -999999, 0.5, 1e21, 1e-7,
	}
	for i := 0; i <= 2_000_000; i++ {
		vals = append(vals, float64(i))
	}
	return vals
}

func checkCell(t *testing.T, v float64) {
	t.Helper()
	want := strconv.AppendFloat(nil, v, 'g', -1, 64)
	if got := appendValue(nil, v); !bytes.Equal(got, want) {
		t.Fatalf("appendValue(%v) = %q, AppendFloat gives %q", v, got, want)
	}
}

func checkField(t *testing.T, s string) {
	t.Helper()
	want, werr := strconv.ParseFloat(s, 64)
	got, gerr := parseValue([]byte(s))
	if (werr == nil) != (gerr == nil) || math.Float64bits(want) != math.Float64bits(got) {
		t.Fatalf("parseValue(%q) = %v, %v; ParseFloat gives %v, %v", s, got, gerr, want, werr)
	}
}

func TestCellCodecTable(t *testing.T) {
	for _, v := range cellTable() {
		checkCell(t, v)
	}
	for _, s := range []string{
		"", "0", "007", "+5", "-5", "1e3", "1_0", "0x10", " 1", "1 ", "1.0", ".5", "inf", "NaN",
		"999999999999999", "1000000000000000", "9007199254740993", "123456789012345678901234567890",
		"00000000000000000001", "12a", "１２",
	} {
		checkField(t, s)
	}
}

// FuzzCellCodec: a cell is written as AppendFloat(v, 'g', -1, 64) would
// write it, whatever its bits, and a field parses to what ParseFloat
// makes of it, error or not.
func FuzzCellCodec(f *testing.F) {
	for _, v := range cellTable()[:24] {
		f.Add(math.Float64bits(v), strconv.FormatFloat(v, 'g', -1, 64))
	}
	f.Add(uint64(0), "007")
	f.Add(uint64(1), "1234567890123456")
	f.Fuzz(func(t *testing.T, bits uint64, field string) {
		checkCell(t, math.Float64frombits(bits))
		checkCell(t, float64(bits%3_000_000))
		checkField(t, field)
	})
}

// TestPutAllocBudget: on a warm store a Put allocates a handful of
// objects — the temporary file's name and handle, the final name —
// whatever the snapshot's size, because the file is built in a recycled
// buffer. A buffer per Put would show here as bytes of the order of the
// file. The columnar encoder still builds its key
// dictionary per file, so its budget is in objects only: none per row,
// block or column.
func TestPutAllocBudget(t *testing.T) {
	skipIfPoolDrops(t)
	for _, backend := range []string{BackendTSV, BackendColumnar} {
		st, err := NewStoreBackend(t.TempDir(), backend)
		if err != nil {
			t.Fatal(err)
		}
		put := func(s *Snapshot) func() {
			return func() {
				if err := st.Put(s); err != nil {
					t.Fatal(err)
				}
			}
		}
		big, small := randomSnapshot(3, 2000, false), randomSnapshot(4, 20, false)
		small.Start = big.Start + 60
		allocated(1, put(big)) // grow the recycled buffers to the larger file
		bigBytes, bigObjs := allocated(20, put(big))
		smallBytes, smallObjs := allocated(20, put(small))
		info, err := os.Stat(st.path(fileKey{big.Aggregation, big.Level, big.Start}))
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: Put of 2000 rows (%d B file) allocates %.0f B in %.1f objects; of 20 rows, %.0f B in %.1f",
			backend, info.Size(), bigBytes, bigObjs, smallBytes, smallObjs)
		if backend == BackendColumnar {
			if bigObjs > smallObjs+16 {
				t.Errorf("%s: Put allocates %.1f objects at 2000 rows, %.1f at 20", backend, bigObjs, smallObjs)
			}
			continue
		}
		if bigObjs > smallObjs+2 || bigObjs > 16 {
			t.Errorf("%s: Put allocates %.1f objects at 2000 rows, %.1f at 20: budget 16, the same at both sizes", backend, bigObjs, smallObjs)
		}
		if bigBytes > float64(info.Size())/50 {
			t.Errorf("%s: Put allocates %.0f B for a %d B file: the file is being built in a fresh buffer", backend, bigBytes, info.Size())
		}
	}
}
