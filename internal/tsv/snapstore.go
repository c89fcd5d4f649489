package tsv

import (
	"errors"
	"math"
)

// ErrUnknownColumn is returned by projections and queries that name a
// column the snapshot schema does not have.
var ErrUnknownColumn = errors.New("tsv: unknown column")

// Backend names accepted by NewStoreBackend and the -store flag.
const (
	BackendTSV      = "tsv"
	BackendColumnar = "columnar"
)

// SnapshotStore is the store's former interface name, now an alias of
// *Store. Only cmd/dnsbench still names it; the [benchmark] change that
// next edits the harness removes it.
type SnapshotStore = *Store

// Pred is one predicate for pushdown: keep rows whose value in Col lies
// in [Min, Max] (inclusive). Use -Inf / +Inf for open ends. NaN values
// never satisfy a predicate.
type Pred struct {
	Col string
	Min float64
	Max float64
}

// matches reports whether v satisfies the predicate. NaN fails both
// comparisons, so NaN rows are always filtered out.
func (p Pred) matches(v float64) bool { return v >= p.Min && v <= p.Max }

// AtLeast returns the one-sided predicate col >= min.
func AtLeast(col string, min float64) Pred {
	return Pred{Col: col, Min: min, Max: math.Inf(1)}
}

// Projection restricts what GetProjected materializes: a column subset,
// an exact-key filter, and value-range predicates. The zero value (or
// nil) selects everything.
type Projection struct {
	// Columns lists the columns to materialize, in the requested order;
	// nil or empty means all columns in file order.
	Columns []string
	// Key, when non-empty, keeps only rows with exactly this key. The
	// columnar backend answers a negative from the per-file bloom index
	// without decoding any row data.
	Key string
	// Where keeps only rows satisfying every predicate. Predicate
	// columns do not need to appear in Columns.
	Where []Pred
}

// empty reports whether the projection selects everything, i.e. Get and
// GetProjected would return the same snapshot.
func (p *Projection) empty() bool {
	return p == nil || (len(p.Columns) == 0 && p.Key == "" && len(p.Where) == 0)
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

// columnIndex resolves a column name to its index, with a typed error
// for unknown names.
func (s *Snapshot) columnIndex(name string) (int, error) {
	for i, c := range s.Columns {
		if c == name {
			return i, nil
		}
	}
	return 0, &UnknownColumnError{Column: name}
}

// UnknownColumnError names the missing column; it matches
// ErrUnknownColumn under errors.Is.
type UnknownColumnError struct{ Column string }

// Error implements error.
func (e *UnknownColumnError) Error() string { return "tsv: unknown column " + e.Column }

// Is matches ErrUnknownColumn.
func (e *UnknownColumnError) Is(target error) bool { return target == ErrUnknownColumn }
