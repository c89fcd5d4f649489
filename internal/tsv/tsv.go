package tsv

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Kind mirrors features.Kind without importing it, keeping this package
// a generic time-series layer.
type Kind int

// Column kinds. Counters aggregate as mean rates with zero for missing
// objects; gauges as means over present windows; modes (categorical
// values such as the dominant TTL) as the window-weighted majority
// value — averaging a 300 s and an 86400 s TTL into 43350 would be
// meaningless.
const (
	Counter Kind = iota
	Gauge
	Mode
)

// Level identifies a time granularity.
type Level int

// The aggregation cascade. Each level groups a fixed number of files of
// the previous one.
const (
	Minutely Level = iota
	Decaminutely
	Hourly
	Daily
	Monthly
	Yearly
)

// levelSpec describes one granularity.
type levelSpec struct {
	name    string
	seconds int64
}

var levels = []levelSpec{
	{"min", 60},
	{"10min", 600},
	{"hour", 3600},
	{"day", 86400},
	{"month", 30 * 86400},
	{"year", 360 * 86400},
}

// Name returns the level's short name used in file names.
func (l Level) Name() string { return levels[l].name }

// ParseLevel maps a short name ("min", "10min", "hour", "day", "month",
// "year") to its level; ok is false for any other name.
func ParseLevel(name string) (l Level, ok bool) {
	for l = Minutely; l <= MaxLevel; l++ {
		if l.Name() == name {
			return l, true
		}
	}
	return 0, false
}

// Seconds returns the level's window length.
func (l Level) Seconds() int64 { return levels[l].seconds }

// MaxLevel is the coarsest granularity.
const MaxLevel = Yearly

// Row is one DNS object's feature vector in a snapshot.
type Row struct {
	Key    string
	Values []float64
}

// Snapshot is the contents of one TSV file: the top-k objects of one
// aggregation over one time window.
type Snapshot struct {
	Aggregation string // e.g. "srvip", "esld"
	Level       Level
	Start       int64 // unix seconds of window start
	Columns     []string
	Kinds       []Kind
	Rows        []Row
	// Collection statistics (the file's last row): transactions seen
	// before and after filtering.
	TotalBefore uint64
	TotalAfter  uint64
	// Windows counts how many base windows were averaged into this
	// snapshot (1 for a freshly dumped file).
	Windows int
}

// Errors returned by the codec and aggregator.
var (
	ErrBadFile      = errors.New("tsv: malformed snapshot file")
	ErrSchemaChange = errors.New("tsv: snapshots have different schemas")
)

// fileStem is the canonical file name without extension: the
// granularity and the collection start moment are both encoded, per the
// paper. The store appends its backend's extension.
func (s *Snapshot) fileStem() string {
	return string(appendFileStem(make([]byte, 0, 64), s.Aggregation, s.Level, s.Start))
}

// appendFileStem appends the stem to b. The read path names a file per
// window in range, so the name is built without fmt.
func appendFileStem(b []byte, agg string, level Level, start int64) []byte {
	b = append(b, agg...)
	b = append(b, '-')
	b = append(b, level.Name()...)
	b = append(b, '-')
	return strconv.AppendInt(b, start, 10)
}

// parseFileName inverts Store.FileName for either backend's extension,
// .tsv or .col; ext reports which.
func parseFileName(name string) (agg string, level Level, start int64, ext string, err error) {
	stem, ext := name[:max(len(name)-4, 0)], name[max(len(name)-4, 0):]
	parts := strings.Split(stem, "-")
	if (ext != ".tsv" && ext != ".col") || len(parts) < 3 {
		return "", 0, 0, "", ErrBadFile
	}
	start, err = strconv.ParseInt(parts[len(parts)-1], 10, 64)
	if err != nil {
		return "", 0, 0, "", ErrBadFile
	}
	level, ok := ParseLevel(parts[len(parts)-2])
	if !ok {
		return "", 0, 0, "", ErrBadFile
	}
	return strings.Join(parts[:len(parts)-2], "-"), level, start, ext, nil
}

// encodeBuf is the scratch a snapshot file is built in: the file, which
// is encoded whole and handed to the writer in one Write, and for the
// columnar codec the column sections, which are encoded before the
// directory that precedes them.
type encodeBuf struct{ file, sects []byte }

// encodeBufs recycles them: a buffer grows to the largest file it has
// held, so a warm store allocates nothing per Put that grows with the
// snapshot, and concurrent puts (the cascade's jobs) each take their own.
var encodeBufs = sync.Pool{New: func() any { return new(encodeBuf) }}

// encodeTo builds s's file with encode in a recycled buffer and hands it
// to w in one Write. A writer that takes a prefix without an error (a
// full disk) is reported as io.ErrShortWrite.
func encodeTo(w io.Writer, s *Snapshot, encode func(*Snapshot, *encodeBuf) error) (int64, error) {
	eb := encodeBufs.Get().(*encodeBuf)
	defer encodeBufs.Put(eb)
	if err := encode(s, eb); err != nil {
		return 0, err
	}
	n, err := w.Write(eb.file)
	if err == nil && n < len(eb.file) {
		err = io.ErrShortWrite
	}
	return int64(n), err
}

// WriteTo writes the snapshot in TSV form: a header row with column
// names, one row per object, and a trailing statistics row.
func (s *Snapshot) WriteTo(w io.Writer) (int64, error) {
	return encodeTo(w, s, (*Snapshot).encodeText)
}

// encodeText builds the TSV form in eb.file. It cannot fail; the error
// is the codec signature's.
func (s *Snapshot) encodeText(eb *encodeBuf) error {
	b := append(eb.file[:0], "#key\t"...)
	for i, c := range s.Columns {
		if i > 0 {
			b = append(b, '\t')
		}
		b = append(b, c...)
	}
	b = append(b, "\n#kind\t"...)
	for i, k := range s.Kinds {
		if i > 0 {
			b = append(b, '\t')
		}
		b = append(b, colKindByte(k))
	}
	b = append(b, '\n')
	for _, r := range s.Rows {
		b = append(b, r.Key...)
		for _, v := range r.Values {
			b = append(b, '\t')
			b = appendValue(b, v)
		}
		b = append(b, '\n')
	}
	b = append(b, "#stats\ttotal_before="...)
	b = strconv.AppendUint(b, s.TotalBefore, 10)
	b = append(b, "\ttotal_after="...)
	b = strconv.AppendUint(b, s.TotalAfter, 10)
	b = append(b, "\twindows="...)
	b = strconv.AppendInt(b, int64(s.Windows), 10)
	eb.file = append(b, '\n')
	return nil
}

// appendValue appends one cell as strconv's shortest 'g' form prints it.
// Most cells are small counts: shortest 'g' switches to exponent form
// only from a decimal exponent of 6 up, so a non-negative integer below
// 1e6 prints as its plain digits (except -0, which prints its sign).
func appendValue(b []byte, v float64) []byte {
	if v >= 0 && v < 1e6 {
		if u := uint64(v); float64(u) == v && !(u == 0 && math.Signbit(v)) {
			return strconv.AppendUint(b, u, 10)
		}
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// parseValue parses one cell as strconv.ParseFloat does. A field of 1 to
// 15 digits is an integer below 2^53, exact in a float64, and is
// accumulated directly; ParseFloat takes everything else.
func parseValue(f []byte) (float64, error) {
	var u uint64
	ok := len(f) >= 1 && len(f) <= 15
	for i := 0; ok && i < len(f); i++ {
		d := f[i] - '0'
		ok = d <= 9
		u = u*10 + uint64(d)
	}
	if !ok {
		return strconv.ParseFloat(string(f), 64)
	}
	return float64(u), nil
}

// Read parses a snapshot written by WriteTo. Aggregation, Level and
// Start are not stored in the file body (they live in the name) and are
// left zero; callers set them from the file name.
func Read(r io.Reader) (*Snapshot, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	f := colFilePool.Get().(*colFile)
	defer f.release()
	if err := f.openText(bytes.NewReader(data), int64(len(data)), nil, nil); err != nil {
		return nil, err
	}
	return f.snapshot(), nil
}

// maxLine bounds a line of text, its newline included: a longer one is
// bufio.ErrTooLong, the error a 16 MiB bufio.Scanner gives.
const maxLine = 16 << 20

// openText is the text codec's reader: it decodes the file behind src
// into f, the scratch the columnar reader fills — column names as views
// of the file, kinds, the #stats totals, keys copied back to back into
// f.keys as a dictionary with one entry per row, the values of the
// projected and predicate columns and, as sel, the rows the
// projection's Key and Where keep — so that f.snapshot and
// accumulator.foldFile serve either codec.
//
// The trailing #stats row doubles as an end-of-file marker: WriteTo
// always emits it last, so its absence means the file was truncated —
// possibly at a clean line boundary, which no per-line check could
// catch — and the file is ErrBadFile. So is one that does not give
// exactly one kind per column or one value per column in every row, or
// whose #key line names a column twice. Only a file that parses is
// checked against the projection. A text file is parsed whole on every
// read, so a frame kept from an earlier read is not used.
func (f *colFile) openText(src io.ReaderAt, size int64, proj *Projection, _ *colFrame) error {
	f.attach(src, size)
	data, err := f.read(0, int(size))
	if err != nil {
		return err
	}
	nl, tab := []byte{'\n'}, []byte{'\t'}
	// The last #key line names the columns. It is found, and the
	// projection resolved against it, before any row is read, so that
	// only the values the projection needs are kept.
	at := -1
	for i := 0; ; i++ {
		j := bytes.Index(data[i:], []byte("#key\t"))
		if j < 0 {
			break
		}
		if i += j; i == 0 || data[i-1] == '\n' {
			at = i
		}
	}
	f.names = f.names[:0]
	if at >= 0 {
		line, _, _ := bytes.Cut(data[at+len("#key\t"):], nl)
		line = bytes.TrimSuffix(line, []byte{'\r'})
		for more := true; more; {
			var name []byte
			name, line, more = bytes.Cut(line, tab)
			f.names = append(f.names, name)
		}
	}
	resolveErr := f.resolve(proj)
	// Scratch is sized once, for as many rows as the file has lines.
	maxRows := bytes.Count(data, nl) + 1
	f.cols = slices.Grow(f.cols[:0], len(f.names))[:len(f.names)]
	if resolveErr == nil {
		for _, cols := range [2][]int{f.colIdx, f.predIdx} {
			for _, j := range cols {
				f.colSlot[j] = int32(j) // column j is kept in cols[j]
				f.cols[j].vals = growSlice(f.cols[j].vals, maxRows)
			}
		}
	}

	f.kinds, f.keys = f.kinds[:0], f.keys[:0]
	f.dictOff, f.ids = append(slices.Grow(f.dictOff[:0], maxRows+1), 0), nil
	f.nrows, f.totalBefore, f.totalAfter, f.windows = 0, 0, 0, 1
	nCols, ragged, sawStats := 0, false, false // nCols: fields of the last #key line read
	for len(data) > 0 {
		line, rest, _ := bytes.Cut(data, nl)
		if len(line) >= maxLine {
			return bufio.ErrTooLong
		}
		data = rest
		line = bytes.TrimSuffix(line, []byte{'\r'})
		switch {
		case bytes.HasPrefix(line, []byte("#key\t")):
			nCols = bytes.Count(line, tab)
		case bytes.HasPrefix(line, []byte("#kind\t")):
			for fields, more := line[len("#kind\t"):], true; more; {
				var k []byte
				k, fields, more = bytes.Cut(fields, tab)
				switch string(k) {
				case "c":
					f.kinds = append(f.kinds, Counter)
				case "m":
					f.kinds = append(f.kinds, Mode)
				default:
					f.kinds = append(f.kinds, Gauge)
				}
			}
		case bytes.HasPrefix(line, []byte("#stats\t")):
			// All three keys must parse: a file cut mid-way through this
			// line would otherwise still pass the end-of-file check.
			statKeys := 0
			for fields, more := line[len("#stats\t"):], true; more; {
				var stat []byte
				stat, fields, more = bytes.Cut(fields, tab)
				k, v, ok := bytes.Cut(stat, []byte{'='})
				if !ok {
					continue
				}
				n, err := strconv.ParseUint(string(v), 10, 64)
				if err != nil {
					return ErrBadFile
				}
				switch string(k) {
				case "total_before":
					f.totalBefore = n
					statKeys++
				case "total_after":
					f.totalAfter = n
					statKeys++
				case "windows":
					f.windows = int(n)
					statKeys++
				}
			}
			if statKeys != 3 {
				return ErrBadFile
			}
			sawStats = true
		case len(line) == 0 || line[0] == '#':
			// Skip blanks and unknown comments.
		default:
			key, fields, ok := bytes.Cut(line, tab)
			if nCols == 0 || !ok {
				return ErrBadFile
			}
			// A row read under an earlier #key line of another width is
			// only checked: the file is rejected at the end.
			ragged = ragged || nCols != len(f.names)
			for i := 0; i < nCols; i++ {
				field, rest, more := bytes.Cut(fields, tab)
				if more != (i < nCols-1) {
					return ErrBadFile // too many or too few fields
				}
				v, err := parseValue(field)
				if err != nil {
					return ErrBadFile
				}
				if resolveErr == nil && !ragged && f.colSlot[i] >= 0 {
					f.cols[i].vals[f.nrows] = v
				}
				fields = rest
			}
			f.keys = append(f.keys, key...)
			f.dictOff = append(f.dictOff, len(f.keys))
			f.nrows++
		}
	}
	if nCols == 0 || !sawStats || len(f.kinds) != len(f.names) || ragged || repeats(f.names) {
		return ErrBadFile
	}
	if resolveErr != nil {
		return resolveErr
	}
	f.dict = f.keys
	var key string
	var preds []Pred
	if proj != nil {
		key, preds = proj.Key, proj.Where
	}
	f.sel = slices.Grow(f.sel[:0], f.nrows)
rows:
	for i := 0; i < f.nrows; i++ {
		if key != "" && string(f.dictKey(i)) != key {
			continue
		}
		for pi, p := range preds {
			if !p.matches(f.cols[f.predIdx[pi]].vals[i]) {
				continue rows
			}
		}
		f.sel = append(f.sel, i)
	}
	return nil
}

// Find returns the first row for key, or nil. It scans: a caller with
// many keys to look up builds its own map once.
func (s *Snapshot) Find(key string) *Row {
	for i := range s.Rows {
		if s.Rows[i].Key == key {
			return &s.Rows[i]
		}
	}
	return nil
}

// Value returns row's value in the named column; ok is false when the
// column does not exist.
func (s *Snapshot) Value(r *Row, column string) (float64, bool) {
	for i, c := range s.Columns {
		if c == column {
			return r.Values[i], true
		}
	}
	return 0, false
}

// SortByColumn orders rows by the named column, descending.
func (s *Snapshot) SortByColumn(column string) {
	idx := -1
	for i, c := range s.Columns {
		if c == column {
			idx = i
			break
		}
	}
	if idx < 0 {
		return
	}
	sort.SliceStable(s.Rows, func(i, j int) bool {
		if s.Rows[i].Values[idx] != s.Rows[j].Values[idx] {
			return s.Rows[i].Values[idx] > s.Rows[j].Values[idx]
		}
		return s.Rows[i].Key < s.Rows[j].Key
	})
}
