package tsv

import (
	"slices"
	"strings"
	"sync"
)

// accumulator folds the rows of consecutive windows with the cascade's
// semantics (§2.4): counters average over all windows with missing
// objects as zero, gauges average over the windows where the object
// appears, modes take the window-weighted majority. It is the one
// implementation behind the cascade and the query engine; both feed it
// one file at a time and let each go before the next.
//
// Sums are bit-reproducible because the fold order is fixed: callers
// fold files in ascending start order, and each fold adds a file's rows
// in file order, so every sum += value·windows of one (key, column)
// cell happens in the same sequence however the rows were produced.
//
// State is flat: a key maps to a slot once, on first appearance, and
// the slot indexes sum and present. An accumulator is pooled scratch;
// what rows returns is only valid until release.
type accumulator struct {
	files int // folds so far; the first one sets cols and kinds
	cols  []string
	kinds []Kind

	idx     map[string]int32
	keys    []string  // slot → key, in first-appearance order
	sum     []float64 // slot*len(cols)+col → Σ value·windows
	present []int     // slot → windows in which the key appeared
	// modes tallies windows per distinct non-zero value, for cells of
	// Mode columns only. Zero means "nothing observed this window" for
	// the TTL-mode columns, not a zero TTL; it is skipped the way gauges
	// skip missing data points.
	modes map[modeCell]int

	windows     int
	totalBefore uint64
	totalAfter  uint64

	// Scratch of foldFile: dictionary entry → slot and selected row →
	// slot of the file being folded, and the entries whose key is new.
	dictSlot []int32
	rowSlot  []int32
	pending  []int32
	// Scratch of rows, and buffers its callers may pass it.
	best    []float64
	bestW   []int
	rowBuf  []Row
	flatBuf []float64
	// The reader scratch of the query the accumulator belongs to: every
	// file it folds is read through this one.
	file colFile
}

// modeCell is one observed value of one Mode cell (an index into sum).
type modeCell struct {
	cell int
	v    float64
}

const (
	slotUnseen  = -1 // dictionary entry not looked up yet
	slotPending = -2 // dictionary entry whose key is new in this file
)

var accumulatorPool = sync.Pool{New: func() any {
	return &accumulator{idx: map[string]int32{}, modes: map[modeCell]int{}}
}}

func newAccumulator() *accumulator { return accumulatorPool.Get().(*accumulator) }

// release resets a and returns it to the pool, dropping every string it
// holds so a pooled accumulator pins nobody's keys.
func (a *accumulator) release() {
	clear(a.idx)
	clear(a.modes)
	clear(a.keys)
	clear(a.rowBuf)
	a.files, a.cols, a.kinds = 0, nil, nil
	a.keys, a.sum, a.present = a.keys[:0], a.sum[:0], a.present[:0]
	a.rowBuf, a.flatBuf = a.rowBuf[:0], a.flatBuf[:0]
	a.windows, a.totalBefore, a.totalAfter = 0, 0, 0
	a.file.detach()
	accumulatorPool.Put(a)
}

// newSlot gives key, which the accumulator keeps, the next slot.
func (a *accumulator) newSlot(key string) int32 {
	slot := int32(len(a.keys))
	a.idx[key] = slot
	a.keys = append(a.keys, key)
	a.present = append(a.present, 0)
	n := len(a.sum)
	a.sum = slices.Grow(a.sum, len(a.cols))[:n+len(a.cols)]
	clear(a.sum[n:])
	return slot
}

// header accounts one more input of the given size.
func (a *accumulator) header(windows int, totalBefore, totalAfter uint64) {
	a.files++
	a.windows += windows
	a.totalBefore += totalBefore
	a.totalAfter += totalAfter
}

// foldSnapshot folds a materialized snapshot — a query's first file,
// once a second one arrives. Its key strings are kept, not copied: a
// Snapshot owns its memory.
func (a *accumulator) foldSnapshot(s *Snapshot) error {
	if a.files == 0 {
		a.cols, a.kinds = s.Columns, s.Kinds
	} else {
		if len(s.Columns) != len(a.cols) {
			return ErrSchemaChange
		}
		for i := range s.Columns {
			if s.Columns[i] != a.cols[i] || s.Kinds[i] != a.kinds[i] {
				return ErrSchemaChange
			}
		}
	}
	a.header(s.Windows, s.TotalBefore, s.TotalAfter)
	ncols, w := len(a.cols), float64(s.Windows)
	for ri := range s.Rows {
		r := &s.Rows[ri]
		slot, ok := a.idx[r.Key]
		if !ok {
			slot = a.newSlot(r.Key)
		}
		a.present[slot] += s.Windows
		cell := int(slot) * ncols
		for i, v := range r.Values[:min(len(r.Values), ncols)] {
			a.sum[cell+i] += v * w
			if a.kinds[i] == Mode && v != 0 {
				a.modes[modeCell{cell + i, v}] += s.Windows
			}
		}
	}
	return nil
}

// foldFile folds the selected rows of an opened file, of either codec,
// straight from the reader's scratch: keys are looked up as byte views
// and copied — one backing string per file — only on first appearance.
func (a *accumulator) foldFile(f *colFile) error {
	ncols := len(f.colIdx)
	if a.files == 0 {
		a.cols = f.columnNames()
		a.kinds = make([]Kind, ncols)
		for oi, j := range f.colIdx {
			a.kinds[oi] = f.kinds[j]
		}
	} else {
		if ncols != len(a.cols) {
			return ErrSchemaChange
		}
		for oi, j := range f.colIdx {
			if string(f.names[j]) != a.cols[oi] || f.kinds[j] != a.kinds[oi] {
				return ErrSchemaChange
			}
		}
	}
	a.header(f.windows, f.totalBefore, f.totalAfter)
	if len(f.sel) == 0 {
		return nil
	}

	// Slots first, one map lookup per distinct selected key, creating
	// them in row order as a row-by-row fold would.
	a.dictSlot = growSlice(a.dictSlot, len(f.dictOff)-1)
	for d := range a.dictSlot {
		a.dictSlot[d] = slotUnseen
	}
	a.pending = a.pending[:0]
	newBytes := 0
	for _, i := range f.sel {
		d := f.dictID(i)
		if a.dictSlot[d] != slotUnseen {
			continue
		}
		if slot, ok := a.idx[string(f.dictKey(d))]; ok {
			a.dictSlot[d] = slot
		} else {
			a.dictSlot[d] = slotPending
			a.pending = append(a.pending, int32(d))
			newBytes += len(f.dictKey(d))
		}
	}
	if len(a.pending) > 0 {
		var sb strings.Builder
		sb.Grow(newBytes)
		for _, d := range a.pending {
			sb.Write(f.dictKey(int(d)))
		}
		backing := sb.String()
		for _, d := range a.pending {
			n := len(f.dictKey(int(d)))
			key := backing[:n]
			backing = backing[n:]
			// Two dictionary entries may spell one key.
			slot, ok := a.idx[key]
			if !ok {
				slot = a.newSlot(key)
			}
			a.dictSlot[d] = slot
		}
	}
	a.rowSlot = growSlice(a.rowSlot, len(f.sel))
	for k, i := range f.sel {
		slot := a.dictSlot[f.dictID(i)]
		a.rowSlot[k] = slot
		a.present[slot] += f.windows
	}

	// Then values, a column at a time. Cells are independent, so only
	// the row order within a column matters, and that is file order.
	w := float64(f.windows)
	for oi := range f.colIdx {
		vals, mode := f.projected(oi), a.kinds[oi] == Mode
		for k, i := range f.sel {
			cell, v := int(a.rowSlot[k])*ncols+oi, vals[i]
			a.sum[cell] += v * w
			if mode && v != 0 {
				a.modes[modeCell{cell, v}] += f.windows
			}
		}
	}
	return nil
}

// snapshot returns what a has folded as the snapshot of (agg, level,
// start), rows in key order: the cascade's upper file. It owns its
// memory and outlives release.
func (a *accumulator) snapshot(agg string, level Level, start int64) *Snapshot {
	out := &Snapshot{Aggregation: agg, Level: level, Start: start, Columns: a.cols, Kinds: a.kinds,
		TotalBefore: a.totalBefore, TotalAfter: a.totalAfter, Windows: a.windows}
	if len(a.keys) > 0 {
		out.Rows, _ = a.rows(make([]Row, 0, len(a.keys)), make([]float64, 0, len(a.sum)))
		slices.SortFunc(out.Rows, func(x, y Row) int { return strings.Compare(x.Key, y.Key) })
	}
	return out
}

// rows appends the aggregate row of every key, in first-appearance
// order, to dst; their values are carved from flat, which is grown once
// up front so that they stay put.
func (a *accumulator) rows(dst []Row, flat []float64) ([]Row, []float64) {
	ncols := len(a.cols)
	if len(a.modes) > 0 {
		// Window-weighted majority value per Mode cell; ties break low.
		a.best, a.bestW = growSlice(a.best, len(a.sum)), growSlice(a.bestW, len(a.sum))
		clear(a.best)
		for i := range a.bestW {
			a.bestW[i] = -1
		}
		for m, w := range a.modes {
			if w > a.bestW[m.cell] || (w == a.bestW[m.cell] && m.v < a.best[m.cell]) {
				a.best[m.cell], a.bestW[m.cell] = m.v, w
			}
		}
	}
	flat = slices.Grow(flat, len(a.sum))
	dst = slices.Grow(dst, len(a.keys))
	for slot, key := range a.keys {
		start := len(flat)
		for i := 0; i < ncols; i++ {
			cell, kind, v := slot*ncols+i, a.kinds[i], 0.0
			switch {
			case kind == Counter:
				// Average rate per base window over the whole period;
				// absent windows count as zero.
				v = a.sum[cell] / float64(a.windows)
			case kind == Mode:
				if len(a.modes) > 0 {
					v = a.best[cell]
				}
			case a.present[slot] > 0:
				// Mean over the windows where the object was present.
				v = a.sum[cell] / float64(a.present[slot])
			}
			flat = append(flat, v)
		}
		dst = append(dst, Row{Key: key, Values: flat[start:len(flat):len(flat)]})
	}
	return dst, flat
}
