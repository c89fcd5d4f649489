package tsv

import (
	"errors"
	"slices"
)

// Errors returned by MergeParts.
var (
	ErrNothingToAgg = errors.New("tsv: no snapshots to aggregate")
	ErrMixedParts   = errors.New("tsv: snapshots are not parts of one window")
)

// MergeParts merges partial snapshots of the SAME aggregation, level and
// window — the per-collector parts of one fleet window — into a single
// snapshot: rows are united, collection statistics summed, rows put in
// report order (descending first column, ties by key) and, when
// topK > 0, cut at topK. A key in several parts becomes one row: Counter
// columns are summed and Gauge/Mode columns taken from the part with
// more hits. The parts are not modified.
func MergeParts(topK int, parts ...*Snapshot) (*Snapshot, error) {
	if len(parts) == 0 {
		return nil, ErrNothingToAgg
	}
	first := parts[0]
	out := &Snapshot{
		Aggregation: first.Aggregation,
		Level:       first.Level,
		Start:       first.Start,
		Columns:     first.Columns,
		Kinds:       first.Kinds,
		Windows:     first.Windows,
	}
	idx := map[string]int{}
	for _, p := range parts {
		if p.Aggregation != first.Aggregation || p.Level != first.Level ||
			p.Start != first.Start || p.Windows != first.Windows {
			return nil, ErrMixedParts
		}
		if !slices.Equal(p.Columns, first.Columns) || !slices.Equal(p.Kinds, first.Kinds) {
			return nil, ErrSchemaChange
		}
		out.TotalBefore += p.TotalBefore
		out.TotalAfter += p.TotalAfter
		for _, r := range p.Rows {
			j, dup := idx[r.Key]
			if !dup {
				idx[r.Key] = len(out.Rows)
				out.Rows = append(out.Rows, Row{Key: r.Key, Values: slices.Clone(r.Values)})
				continue
			}
			dst := &out.Rows[j]
			heavier := len(r.Values) > 0 && r.Values[0] > dst.Values[0]
			for i := range dst.Values {
				if first.Kinds[i] == Counter {
					dst.Values[i] += r.Values[i]
				} else if heavier {
					dst.Values[i] = r.Values[i]
				}
			}
		}
	}
	out.Rows = TopRows(out.Rows, 0, topK)
	return out, nil
}
