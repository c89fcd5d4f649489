package tsv

// Code the read path no longer calls, kept as oracles. foldSnapshot is
// how a query folded its first file (a materialized Snapshot) until that
// file went through foldFile like the rest; the accumulator tests
// cross-check foldFile against it. Snapshot.columnIndex resolved the
// query's OrderBy against that Snapshot; the frozen decoders call it.

// foldSnapshot folds a materialized snapshot, as a query folded its
// first file once a second one arrived. Its key strings are kept, not
// copied: a Snapshot owns its memory.
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
