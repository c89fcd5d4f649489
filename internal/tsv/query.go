package tsv

import (
	"errors"
	"fmt"
	"io/fs"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"dnsobservatory/internal/metrics"
)

// Errors returned by the query engine.
var (
	// ErrBadQuery matches malformed queries: level out of range,
	// inverted time range, negative K.
	ErrBadQuery = errors.New("tsv: bad query")
	// ErrNoData matches queries whose time range holds no snapshot
	// files.
	ErrNoData = errors.New("tsv: no snapshots in range")
)

// Query is one read against a snapshot store: a time range of one
// aggregation at one level, a column projection, optional key and
// value-range predicates, and top-k ranking. Serving analysts through
// queries instead of handing them files is what lets the store choose
// how little to decode.
type Query struct {
	// Agg is the aggregation name (e.g. "srvip", "esld"). Required.
	Agg string
	// Level is the cascade granularity to read.
	Level Level
	// From and To bound the window starts: From <= start < To. A zero
	// To means unbounded; From is inclusive from zero.
	From, To int64
	// Columns is the projection, in the requested order; empty means
	// every column. OrderBy is implicitly included.
	Columns []string
	// OrderBy names the ranking column; empty means the first result
	// column. Rows order by descending value, ties broken by ascending
	// key.
	OrderBy string
	// K caps the result to the strongest K rows; 0 means all.
	K int
	// Key, when non-empty, restricts the query to one object — a point
	// lookup the columnar backend can answer from the bloom index.
	Key string
	// Where keeps only rows satisfying every predicate, evaluated
	// per window before aggregation.
	Where []Pred
}

// Result is a query's answer: rows aggregated over the matched windows
// (same counter/gauge/mode semantics as the cascade), ranked by the
// OrderBy column.
type Result struct {
	Agg     string
	Level   Level
	Columns []string
	Kinds   []Kind
	Rows    []Row
	// From and To echo the actual window-start range covered:
	// the first and last file start aggregated.
	From, To int64
	// Windows is the total number of base windows aggregated; Files the
	// number of snapshot files read; CorruptSkipped how many files in
	// range were unreadable and skipped.
	Windows        int
	Files          int
	CorruptSkipped int
	TotalBefore    uint64
	TotalAfter     uint64
}

// Engine runs queries against one store and keeps the query-side
// metrics. The zero value with Store set is ready to use; Engine is
// safe for concurrent use if the underlying store is.
type Engine struct {
	Store *Store

	queries      atomic.Uint64
	filesScanned atomic.Uint64
	rowsReturned atomic.Uint64
	corruptSkips atomic.Uint64
	seconds      *metrics.Histogram
}

// NewEngine returns a query engine over st.
func NewEngine(st *Store) *Engine { return &Engine{Store: st} }

// Instrument registers the engine's read-through counters and its
// latency histogram with reg.
func (e *Engine) Instrument(reg *metrics.Registry) {
	reg.CounterFunc("dnsobs_query_total", "queries executed", e.Queries)
	reg.CounterFunc("dnsobs_query_files_total", "snapshot files read by queries", e.FilesScanned)
	reg.CounterFunc("dnsobs_query_rows_returned_total", "rows returned by queries", e.RowsReturned)
	reg.CounterFunc("dnsobs_query_corrupt_skips_total", "corrupt snapshot files skipped by queries", e.CorruptSkips)
	e.seconds = reg.Histogram("dnsobs_query_seconds", "query execution duration", metrics.DurationBuckets)
}

// Queries returns how many queries the engine has executed.
func (e *Engine) Queries() uint64 { return e.queries.Load() }

// FilesScanned returns how many snapshot files queries have read.
func (e *Engine) FilesScanned() uint64 { return e.filesScanned.Load() }

// RowsReturned returns the total rows returned across queries.
func (e *Engine) RowsReturned() uint64 { return e.rowsReturned.Load() }

// CorruptSkips returns how many corrupt files queries have skipped.
func (e *Engine) CorruptSkips() uint64 { return e.corruptSkips.Load() }

// RunQuery executes q against st with a throwaway engine — the
// convenience form for tools and tests.
func RunQuery(st *Store, q Query) (*Result, error) {
	return (&Engine{Store: st}).Run(q)
}

// Run executes one query. Identical queries over identical logical
// contents return identical results on every backend: the TSV and
// columnar stores differ only in how much work reaching this answer
// takes.
func (e *Engine) Run(q Query) (*Result, error) {
	start := time.Now()
	res, err := e.run(q)
	e.queries.Add(1)
	if e.seconds != nil {
		e.seconds.Observe(time.Since(start).Seconds())
	}
	if res != nil {
		e.filesScanned.Add(uint64(res.Files))
		e.rowsReturned.Add(uint64(len(res.Rows)))
		e.corruptSkips.Add(uint64(res.CorruptSkipped))
	}
	return res, err
}

func (e *Engine) run(q Query) (*Result, error) {
	if q.Agg == "" {
		return nil, fmt.Errorf("%w: empty aggregation", ErrBadQuery)
	}
	if q.Level < Minutely || q.Level > MaxLevel {
		return nil, fmt.Errorf("%w: level out of range", ErrBadQuery)
	}
	if q.To != 0 && q.From > q.To {
		return nil, fmt.Errorf("%w: inverted time range", ErrBadQuery)
	}
	if q.K < 0 {
		return nil, fmt.Errorf("%w: negative k", ErrBadQuery)
	}
	starts, err := e.Store.List(q.Agg, q.Level)
	if err != nil {
		return nil, err
	}
	n := 0
	for _, s := range starts { // the listing is ours: filter it in place
		if s >= q.From && (q.To == 0 || s < q.To) {
			starts[n] = s
			n++
		}
	}
	if starts = starts[:n]; n == 0 {
		return nil, fmt.Errorf("%w: %s/%s in [%d, %d)", ErrNoData, q.Agg, q.Level.Name(), q.From, q.To)
	}

	proj := &Projection{Key: q.Key, Where: q.Where}
	if len(q.Columns) > 0 {
		proj.Columns = append([]string(nil), q.Columns...)
		if q.OrderBy != "" && !slices.Contains(proj.Columns, q.OrderBy) {
			proj.Columns = append(proj.Columns, q.OrderBy)
		}
	}

	// The first readable file is materialized and every later one
	// folded into the accumulator as it is read, the first going in
	// ahead of the second: one window passes through untouched, so a
	// single-file query returns the file's rows bit-exactly, and nothing
	// but the first file and the accumulator outlives the file it came
	// from.
	res := &Result{Agg: q.Agg, Level: q.Level}
	acc := newAccumulator()
	defer acc.release()
	var first *Snapshot
	orderIdx := 0
	for _, s := range starts {
		var err error
		if first == nil {
			if first, err = e.Store.scan(fileKey{q.Agg, q.Level, s}, proj, nil, true); err == nil && q.OrderBy != "" {
				// Every column the query names is now resolved against
				// a schema, before any other file is read.
				if orderIdx, err = first.columnIndex(q.OrderBy); err != nil {
					return res, err
				}
			}
		} else {
			if acc.files == 0 {
				err = acc.foldSnapshot(first)
			}
			if err == nil {
				_, err = e.Store.scan(fileKey{q.Agg, q.Level, s}, proj, acc, true)
			}
		}
		switch {
		case err == nil:
		case errors.Is(err, ErrCorruptSnapshot):
			res.CorruptSkipped++
			continue
		case errors.Is(err, fs.ErrNotExist):
			// Listed, then deleted (Retention removes files before it
			// invalidates the listing): the window is no longer there.
			continue
		default:
			return res, err
		}
		if res.Files == 0 {
			res.From = s
		}
		res.To = s
		res.Files++
	}
	if first == nil {
		return res, fmt.Errorf("%w: every file in range was corrupt or gone", ErrNoData)
	}

	res.Columns = append([]string(nil), first.Columns...)
	res.Kinds = append([]Kind(nil), first.Kinds...)
	if res.Files == 1 {
		res.Windows, res.TotalBefore, res.TotalAfter = first.Windows, first.TotalBefore, first.TotalAfter
		res.Rows = TopRows(first.Rows, orderIdx, q.K)
		return res, nil
	}
	res.Windows, res.TotalBefore, res.TotalAfter = acc.windows, acc.totalBefore, acc.totalAfter
	acc.rowBuf, acc.flatBuf = acc.rows(acc.rowBuf, acc.flatBuf)
	res.Rows = TopRows(acc.rowBuf, orderIdx, q.K)
	// The survivors' values still live in the accumulator: copy them
	// out, so the Result owns its memory.
	own := make([]float64, 0, len(res.Rows)*len(res.Columns))
	for i := range res.Rows {
		at := len(own)
		own = append(own, res.Rows[i].Values...)
		res.Rows[i].Values = own[at:len(own):len(own)]
	}
	return res, nil
}

// rowLess is the report order: descending value in the order column,
// ties broken by ascending key.
func rowLess(a, b *Row, idx int) bool {
	av, bv := a.Values[idx], b.Values[idx]
	if av != bv {
		return av > bv
	}
	return a.Key < b.Key
}

// TopRows returns the strongest k rows by the order column (all rows
// when k is 0 or exceeds the row count), sorted in report order, in a
// slice of its own: rows is read and never reordered, so a snapshot
// other goroutines are reading can be ranked. For small k over a large
// row set it runs a partial selection over a size-k min-heap — the
// spacesaving Cache.Top idiom — instead of sorting everything.
func TopRows(rows []Row, orderIdx, k int) []Row {
	if len(rows) == 0 {
		return nil
	}
	if orderIdx >= len(rows[0].Values) {
		// Zero-column projection: nothing to order by; keep the order.
		return append([]Row(nil), rows...)
	}
	if k <= 0 || k >= len(rows) {
		out := append([]Row(nil), rows...)
		sort.SliceStable(out, func(i, j int) bool { return rowLess(&out[i], &out[j], orderIdx) })
		return out
	}
	// Min-heap of the k strongest rows seen so far, keyed by report
	// order so the root is the weakest survivor.
	sel := make([]Row, 0, k)
	for ri := range rows {
		r := &rows[ri]
		if len(sel) < k {
			sel = append(sel, *r)
			i := len(sel) - 1
			for i > 0 {
				p := (i - 1) / 2
				if !rowLess(&sel[p], &sel[i], orderIdx) {
					break
				}
				sel[i], sel[p] = sel[p], sel[i]
				i = p
			}
			continue
		}
		if !rowLess(r, &sel[0], orderIdx) {
			continue // weaker than the weakest survivor
		}
		sel[0] = *r
		i := 0
		for {
			l := 2*i + 1
			if l >= k {
				break
			}
			m := l
			if rt := l + 1; rt < k && rowLess(&sel[l], &sel[rt], orderIdx) {
				m = rt
			}
			if !rowLess(&sel[i], &sel[m], orderIdx) {
				break
			}
			sel[i], sel[m] = sel[m], sel[i]
			i = m
		}
	}
	sort.SliceStable(sel, func(i, j int) bool { return rowLess(&sel[i], &sel[j], orderIdx) })
	return sel
}
