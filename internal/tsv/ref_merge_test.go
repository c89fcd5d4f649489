package tsv

// The parent commit's two aggregators, frozen as the reference the
// shared streaming accumulator is compared against: refMergeWindows
// was the query engine's, refAggregate the cascade's. Only names
// changed (ref prefix), and refAggregate's level checks went with the
// ErrMixedLevels they returned, and refAggregate's empty-input error is
// its own now that ErrNothingToAgg is gone; do not "fix" anything else
// here.

import (
	"errors"
	"sort"
)

// refMergeWindows aggregates the projected snapshots of a range with the
// cascade's semantics — counters average over all windows with missing
// objects as zero, gauges average over present windows, modes take the
// window-weighted majority — and fills the result's schema and totals.
// One window passes through untouched, so a single-file query returns
// the file's rows bit-exactly.
func refMergeWindows(snaps []*Snapshot, res *Result) ([]Row, error) {
	first := snaps[0]
	res.Columns = append([]string(nil), first.Columns...)
	res.Kinds = append([]Kind(nil), first.Kinds...)
	if len(snaps) == 1 {
		res.Windows = first.Windows
		res.TotalBefore = first.TotalBefore
		res.TotalAfter = first.TotalAfter
		return first.Rows, nil
	}
	type acc struct {
		sum     []float64
		present []int
		modes   []map[float64]int
	}
	hasModes := false
	for _, k := range first.Kinds {
		if k == Mode {
			hasModes = true
			break
		}
	}
	accs := map[string]*acc{}
	var order []string // first-appearance order, for deterministic iteration
	totalWindows := 0
	for _, s := range snaps {
		if len(s.Columns) != len(first.Columns) {
			return nil, ErrSchemaChange
		}
		for i := range s.Columns {
			if s.Columns[i] != first.Columns[i] || s.Kinds[i] != first.Kinds[i] {
				return nil, ErrSchemaChange
			}
		}
		totalWindows += s.Windows
		res.TotalBefore += s.TotalBefore
		res.TotalAfter += s.TotalAfter
		for _, r := range s.Rows {
			a, ok := accs[r.Key]
			if !ok {
				a = &acc{sum: make([]float64, len(first.Columns)), present: make([]int, len(first.Columns))}
				if hasModes {
					a.modes = make([]map[float64]int, len(first.Columns))
				}
				accs[r.Key] = a
				order = append(order, r.Key)
			}
			for i, v := range r.Values {
				a.sum[i] += v * float64(s.Windows)
				a.present[i] += s.Windows
				if first.Kinds[i] == Mode && v != 0 {
					if a.modes[i] == nil {
						a.modes[i] = map[float64]int{}
					}
					a.modes[i][v] += s.Windows
				}
			}
		}
	}
	res.Windows = totalWindows
	rows := make([]Row, 0, len(accs))
	flat := make([]float64, 0, len(accs)*len(first.Columns))
	for _, k := range order {
		a := accs[k]
		start := len(flat)
		for i := range first.Columns {
			switch first.Kinds[i] {
			case Counter:
				flat = append(flat, a.sum[i]/float64(totalWindows))
			case Mode:
				var best float64
				bestW := -1
				for v, w := range a.modes[i] {
					if w > bestW || (w == bestW && v < best) {
						best, bestW = v, w
					}
				}
				flat = append(flat, best)
			default:
				if a.present[i] > 0 {
					flat = append(flat, a.sum[i]/float64(a.present[i]))
				} else {
					flat = append(flat, 0)
				}
			}
		}
		rows = append(rows, Row{Key: k, Values: flat[start:len(flat):len(flat)]})
	}
	return rows, nil
}

// refAggregate combines consecutive snapshots of one level into a snapshot
// of the next level, per §2.4: counter features average over all input
// windows with missing objects contributing zero; gauge features average
// only over the windows where the object appears.
func refAggregate(snaps []*Snapshot) (*Snapshot, error) {
	if len(snaps) == 0 {
		return nil, errors.New("tsv: no snapshots to aggregate")
	}
	first := snaps[0]
	type acc struct {
		sum     []float64
		present []int // windows in which the value appeared (gauges)
		modes   []map[float64]int
	}
	hasModes := false
	for _, k := range first.Kinds {
		if k == Mode {
			hasModes = true
			break
		}
	}
	accs := map[string]*acc{}
	totalWindows := 0
	var totalBefore, totalAfter uint64
	minStart := first.Start
	for _, s := range snaps {
		if len(s.Columns) != len(first.Columns) {
			return nil, ErrSchemaChange
		}
		for i := range s.Columns {
			if s.Columns[i] != first.Columns[i] || s.Kinds[i] != first.Kinds[i] {
				return nil, ErrSchemaChange
			}
		}
		if s.Start < minStart {
			minStart = s.Start
		}
		totalWindows += s.Windows
		totalBefore += s.TotalBefore
		totalAfter += s.TotalAfter
		for _, r := range s.Rows {
			a, ok := accs[r.Key]
			if !ok {
				a = &acc{sum: make([]float64, len(first.Columns)), present: make([]int, len(first.Columns))}
				if hasModes {
					a.modes = make([]map[float64]int, len(first.Columns))
				}
				accs[r.Key] = a
			}
			for i, v := range r.Values {
				a.sum[i] += v * float64(s.Windows)
				a.present[i] += s.Windows
				if first.Kinds[i] == Mode && v != 0 {
					// Zero means "nothing observed this window" for the
					// TTL-mode columns, not a zero TTL; skip it like
					// gauges skip missing data points.
					if a.modes[i] == nil {
						a.modes[i] = map[float64]int{}
					}
					a.modes[i][v] += s.Windows
				}
			}
		}
	}
	out := &Snapshot{
		Aggregation: first.Aggregation,
		Level:       first.Level + 1,
		Start:       minStart,
		Columns:     first.Columns,
		Kinds:       first.Kinds,
		TotalBefore: totalBefore,
		TotalAfter:  totalAfter,
		Windows:     totalWindows,
	}
	keys := make([]string, 0, len(accs))
	for k := range accs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		a := accs[k]
		vals := make([]float64, len(first.Columns))
		for i := range vals {
			switch first.Kinds[i] {
			case Counter:
				// Average rate per base window over the whole period;
				// absent windows count as zero.
				vals[i] = a.sum[i] / float64(totalWindows)
			case Mode:
				// Window-weighted majority value; ties break low.
				var best float64
				bestW := -1
				for v, w := range a.modes[i] {
					if w > bestW || (w == bestW && v < best) {
						best, bestW = v, w
					}
				}
				vals[i] = best
			default:
				// Mean over the windows where the object was present.
				if a.present[i] > 0 {
					vals[i] = a.sum[i] / float64(a.present[i])
				}
			}
		}
		out.Rows = append(out.Rows, Row{Key: k, Values: vals})
	}
	return out, nil
}
