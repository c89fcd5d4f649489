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
// nil) selects everything. What it returns is defined by the test
// oracle applyProjection over a whole decoded snapshot, which both
// codecs' readers are held to.
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

// UnknownColumnError names the missing column; it matches
// ErrUnknownColumn under errors.Is.
type UnknownColumnError struct{ Column string }

// Error implements error.
func (e *UnknownColumnError) Error() string { return "tsv: unknown column " + e.Column }

// Is matches ErrUnknownColumn.
func (e *UnknownColumnError) Is(target error) bool { return target == ErrUnknownColumn }
