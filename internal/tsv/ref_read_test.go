package tsv

// The text codec's reader as it was before the TSV decoder started
// filling the columnar reader's scratch: Read's bufio.Scanner loop,
// which built a whole Snapshot, and applyProjection, which the store ran
// over it and which still defines what a projection returns
// (TestProjectionEquivalence, FuzzTSVReadMatchesReference). Frozen as
// the references the reader is held to; only Read's name changed, and
// both now refuse a header that repeats a column name (repeatsName). Do
// not "fix" anything else here.

import (
	"bufio"
	"bytes"
	"io"
	"slices"
	"strconv"
	"strings"
)

// refReadText parses a snapshot written by WriteTo. Aggregation, Level and
// Start are not stored in the file body (they live in the name) and are
// left zero; callers set them from the file name.
//
// The trailing #stats row doubles as an end-of-file marker: WriteTo
// always emits it last, so its absence means the file was truncated —
// possibly at a clean line boundary, which no per-line check could
// catch — and Read reports ErrBadFile.
func refReadText(r io.Reader) (*Snapshot, error) {
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
	if s.Columns == nil || !sawStats || repeatsName(s.Columns) {
		return nil, ErrBadFile
	}
	return s, nil
}

// repeatsName reports whether a column name appears twice. It is the one
// edit to the frozen readers here and in ref_decode_test.go: a header
// that repeats a name is malformed in both codecs, because a projection
// by name cannot tell the two columns apart.
func repeatsName(cols []string) bool {
	for i, c := range cols {
		if slices.Contains(cols[:i], c) {
			return true
		}
	}
	return false
}

// applyProjection is the reference implementation of projection +
// predicate evaluation over a fully decoded snapshot. The TSV backend
// uses it directly; the columnar fast path must produce byte-identical
// results (asserted by TestProjectionEquivalence). snap is not
// modified.
func applyProjection(snap *Snapshot, proj *Projection) (*Snapshot, error) {
	if proj.empty() {
		return snap, nil
	}
	// Resolve projected and predicate columns against the schema first,
	// so an unknown name is a typed error rather than a silent zero.
	outCols := proj.Columns
	if len(outCols) == 0 {
		outCols = snap.Columns
	}
	colIdx := make([]int, len(outCols))
	outKinds := make([]Kind, len(outCols))
	for i, name := range outCols {
		j, err := snap.columnIndex(name)
		if err != nil {
			return nil, err
		}
		colIdx[i] = j
		outKinds[i] = snap.Kinds[j]
	}
	predIdx := make([]int, len(proj.Where))
	for i, p := range proj.Where {
		j, err := snap.columnIndex(p.Col)
		if err != nil {
			return nil, err
		}
		predIdx[i] = j
	}
	out := &Snapshot{
		Aggregation: snap.Aggregation,
		Level:       snap.Level,
		Start:       snap.Start,
		Columns:     append([]string(nil), outCols...),
		Kinds:       outKinds,
		TotalBefore: snap.TotalBefore,
		TotalAfter:  snap.TotalAfter,
		Windows:     snap.Windows,
	}
	var flat []float64
	for ri := range snap.Rows {
		r := &snap.Rows[ri]
		if proj.Key != "" && r.Key != proj.Key {
			continue
		}
		keep := true
		for pi, p := range proj.Where {
			if !p.matches(r.Values[predIdx[pi]]) {
				keep = false
				break
			}
		}
		if !keep {
			continue
		}
		if len(flat)+len(colIdx) > cap(flat) {
			chunk := len(colIdx) * 256
			if chunk < 1024 {
				chunk = 1024
			}
			flat = make([]float64, 0, chunk)
		}
		start := len(flat)
		for _, j := range colIdx {
			flat = append(flat, r.Values[j])
		}
		out.Rows = append(out.Rows, Row{Key: r.Key, Values: flat[start:len(flat):len(flat)]})
	}
	return out, nil
}
