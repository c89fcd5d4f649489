package tsv

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
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
	ErrNothingToAgg = errors.New("tsv: no snapshots to aggregate")
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
//
// The trailing #stats row doubles as an end-of-file marker: WriteTo
// always emits it last, so its absence means the file was truncated —
// possibly at a clean line boundary, which no per-line check could
// catch — and Read reports ErrBadFile.
func Read(r io.Reader) (*Snapshot, error) {
	sc := bufio.NewScanner(r)
	// Start small — snapshot lines are tens of bytes, and the cascade
	// parses hundreds of files per run — but allow pathological lines to
	// grow the buffer up to 16 MiB.
	sc.Buffer(make([]byte, 0, 4<<10), 16<<20)
	s := &Snapshot{Windows: 1}
	sawStats := false
	// Row values are carved out of chunk-allocated backing arrays so a
	// 30k-row file costs a handful of allocations, not one per row.
	var flat []float64
	for sc.Scan() {
		// The scanner's own bytes: a row is split and parsed in place and
		// only its key is copied out.
		line := sc.Bytes()
		switch {
		case bytes.HasPrefix(line, []byte("#key\t")):
			s.Columns = strings.Split(string(line), "\t")[1:]
		case bytes.HasPrefix(line, []byte("#kind\t")):
			for _, k := range strings.Split(string(line), "\t")[1:] {
				switch k {
				case "c":
					s.Kinds = append(s.Kinds, Counter)
				case "m":
					s.Kinds = append(s.Kinds, Mode)
				default:
					s.Kinds = append(s.Kinds, Gauge)
				}
			}
		case bytes.HasPrefix(line, []byte("#stats\t")):
			// All three keys must parse: a file cut mid-way through this
			// line would otherwise still pass the end-of-file check.
			statKeys := 0
			for _, f := range strings.Split(string(line), "\t")[1:] {
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
		case len(line) == 0 || line[0] == '#':
			// Skip blanks and unknown comments.
		default:
			if s.Columns == nil {
				return nil, ErrBadFile
			}
			nCols := len(s.Columns)
			tab := bytes.IndexByte(line, '\t')
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
				var f []byte
				if i == nCols-1 {
					if bytes.IndexByte(rest, '\t') >= 0 {
						return nil, ErrBadFile // too many fields
					}
					f = rest
				} else {
					t := bytes.IndexByte(rest, '\t')
					if t < 0 {
						return nil, ErrBadFile // too few fields
					}
					f, rest = rest[:t], rest[t+1:]
				}
				v, err := parseValue(f)
				if err != nil {
					return nil, ErrBadFile
				}
				flat = append(flat, v)
			}
			s.Rows = append(s.Rows, Row{Key: string(key), Values: flat[start:len(flat):len(flat)]})
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
