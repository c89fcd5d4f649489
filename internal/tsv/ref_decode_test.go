package tsv

// The parent commit's whole-buffer DNSC1 decoder, frozen as the
// reference the section-addressed reader is compared against
// (FuzzSectionReadMatchesReference, the boundary-corruption table):
// same snapshot or same error class on every input. Only names changed
// (ref prefix), and a header that repeats a column name is malformed
// (repeatsName, ref_read_test.go); do not "fix" anything else here.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

func (f *colBloom) refHas(s string) bool {
	h1, h2 := bloomHash2(s)
	mask := uint64(len(f.words)*64 - 1)
	for i := 0; i < f.k; i++ {
		b := (h1 + uint64(i)*h2) & mask
		if f.words[b/64]&(1<<(b%64)) == 0 {
			return false
		}
	}
	return true
}

// refColStats counts the selective-read work a single decode did; the
// store aggregates them into metrics.
type refColStats struct {
	blocksDecoded uint64
	blocksSkipped uint64
	bloomSkips    uint64
}

// refColReader is a bounds-checked cursor over the file bytes. Every read
// failure is a typed ErrBadColumnar: the decoder must never panic or
// allocate proportionally to a hostile length field.
type refColReader struct {
	data []byte
	off  int
}

func (r *refColReader) fail(what string) error {
	return fmt.Errorf("%w: %s at byte %d", ErrBadColumnar, what, r.off)
}

func (r *refColReader) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		return 0, r.fail("bad varint: " + what)
	}
	r.off += n
	return v, nil
}

// length reads a uvarint that counts not-yet-read items each at least
// minSize bytes, rejecting values the remaining input cannot hold —
// the over-allocation guard.
func (r *refColReader) length(what string, minSize int) (int, error) {
	v, err := r.uvarint(what)
	if err != nil {
		return 0, err
	}
	if minSize < 1 {
		minSize = 1
	}
	if v > uint64(len(r.data)-r.off)/uint64(minSize) {
		return 0, r.fail("oversized length: " + what)
	}
	return int(v), nil
}

func (r *refColReader) bytes(n int, what string) ([]byte, error) {
	if n < 0 || n > len(r.data)-r.off {
		return nil, r.fail("truncated: " + what)
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *refColReader) byte1(what string) (byte, error) {
	if r.off >= len(r.data) {
		return 0, r.fail("truncated: " + what)
	}
	b := r.data[r.off]
	r.off++
	return b, nil
}

func (r *refColReader) f64(what string) (float64, error) {
	b, err := r.bytes(8, what)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
}

// refLazyCol is one column's parsed block metadata with per-block lazy
// value decoding.
type refLazyCol struct {
	nrows     int
	blockRows int
	blocks    []refColBlockMeta
	vals      []float64 // allocated on first decode
	decoded   []bool
}

type refColBlockMeta struct {
	min, max float64
	enc      byte
	payload  []byte
}

// refParseColSection scans a column section's block headers, validating
// payload bounds without decoding any values.
func refParseColSection(sect []byte, nrows, blockRows int) (*refLazyCol, error) {
	nblocks := 0
	if nrows > 0 {
		nblocks = (nrows + blockRows - 1) / blockRows
	}
	c := &refLazyCol{nrows: nrows, blockRows: blockRows, blocks: make([]refColBlockMeta, nblocks)}
	r := &refColReader{data: sect}
	for b := 0; b < nblocks; b++ {
		mn, err := r.f64("block min")
		if err != nil {
			return nil, err
		}
		mx, err := r.f64("block max")
		if err != nil {
			return nil, err
		}
		enc, err := r.byte1("block encoding")
		if err != nil {
			return nil, err
		}
		plen, err := r.length("block payload", 1)
		if err != nil {
			return nil, err
		}
		payload, err := r.bytes(plen, "block payload")
		if err != nil {
			return nil, err
		}
		count := blockRows
		if b == nblocks-1 {
			count = nrows - b*blockRows
		}
		switch enc {
		case encConst:
			if plen != 8 {
				return nil, r.fail("const block payload size")
			}
		case encRaw:
			if plen != 8*count {
				return nil, r.fail("raw block payload size")
			}
		case encIntDelta:
			// Lengths are validated on decode (varint count must match).
		default:
			return nil, r.fail("unknown block encoding")
		}
		c.blocks[b] = refColBlockMeta{min: mn, max: mx, enc: enc, payload: payload}
	}
	if r.off != len(sect) {
		return nil, r.fail("trailing bytes in column section")
	}
	return c, nil
}

// blockRange returns the row range [lo, hi) of block b.
func (c *refLazyCol) blockRange(b int) (int, int) {
	lo := b * c.blockRows
	hi := lo + c.blockRows
	if hi > c.nrows {
		hi = c.nrows
	}
	return lo, hi
}

// ensure decodes block b into c.vals.
func (c *refLazyCol) ensure(b int, stats *refColStats) error {
	if c.decoded == nil {
		c.vals = make([]float64, c.nrows)
		c.decoded = make([]bool, len(c.blocks))
	}
	if c.decoded[b] {
		return nil
	}
	lo, hi := c.blockRange(b)
	m := &c.blocks[b]
	switch m.enc {
	case encConst:
		v := math.Float64frombits(binary.LittleEndian.Uint64(m.payload))
		for i := lo; i < hi; i++ {
			c.vals[i] = v
		}
	case encRaw:
		for i := lo; i < hi; i++ {
			c.vals[i] = math.Float64frombits(
				binary.LittleEndian.Uint64(m.payload[(i-lo)*8:]))
		}
	case encIntDelta:
		off := 0
		prev := int64(0)
		for i := lo; i < hi; i++ {
			u, n := binary.Uvarint(m.payload[off:])
			if n <= 0 {
				return fmt.Errorf("%w: truncated delta block", ErrBadColumnar)
			}
			off += n
			prev += unzigzag(u)
			c.vals[i] = float64(prev)
		}
		if off != len(m.payload) {
			return fmt.Errorf("%w: trailing bytes in delta block", ErrBadColumnar)
		}
	}
	c.decoded[b] = true
	if stats != nil {
		stats.blocksDecoded++
	}
	return nil
}

// refDecodeColumnar decodes data, materializing only what proj selects.
// The result is exactly applyProjection(fullDecode(data), proj); the
// point of the format is reaching it without decoding skipped blocks.
func refDecodeColumnar(data []byte, proj *Projection, stats *refColStats) (*Snapshot, error) {
	r := &refColReader{data: data}
	if m, err := r.bytes(len(colMagic), "magic"); err != nil || string(m) != colMagic {
		if err != nil {
			return nil, err
		}
		return nil, r.fail("bad magic")
	}
	ncols, err := r.length("column count", 2)
	if err != nil {
		return nil, err
	}
	s := &Snapshot{
		Columns: make([]string, ncols),
		Kinds:   make([]Kind, ncols),
	}
	for i := 0; i < ncols; i++ {
		nameLen, err := r.length("column name", 1)
		if err != nil {
			return nil, err
		}
		name, err := r.bytes(nameLen, "column name")
		if err != nil {
			return nil, err
		}
		kb, err := r.byte1("column kind")
		if err != nil {
			return nil, err
		}
		kind, ok := kindFromByte(kb)
		if !ok {
			return nil, r.fail("unknown column kind")
		}
		s.Columns[i] = string(name)
		s.Kinds[i] = kind
	}
	if repeatsName(s.Columns) {
		return nil, r.fail("repeated column name")
	}
	nrows, err := r.length("row count", 1)
	if err != nil {
		return nil, err
	}
	if s.TotalBefore, err = r.uvarint("total_before"); err != nil {
		return nil, err
	}
	if s.TotalAfter, err = r.uvarint("total_after"); err != nil {
		return nil, err
	}
	windows, err := r.uvarint("windows")
	if err != nil {
		return nil, err
	}
	if windows > uint64(math.MaxInt32) {
		return nil, r.fail("oversized windows")
	}
	s.Windows = int(windows)

	keySectLen, err := r.length("key section", 1)
	if err != nil {
		return nil, err
	}
	keySect, err := r.bytes(keySectLen, "key section")
	if err != nil {
		return nil, err
	}

	bloomK, err := r.byte1("bloom k")
	if err != nil {
		return nil, err
	}
	var bloom *colBloom
	if bloomK > 0 {
		if bloomK > 32 {
			return nil, r.fail("oversized bloom k")
		}
		nwords, err := r.length("bloom words", 8)
		if err != nil {
			return nil, err
		}
		if nwords == 0 || bits.OnesCount(uint(nwords)) != 1 {
			return nil, r.fail("bloom size not a power of two")
		}
		wordBytes, err := r.bytes(nwords*8, "bloom bits")
		if err != nil {
			return nil, err
		}
		bloom = &colBloom{k: int(bloomK), words: make([]uint64, nwords)}
		for i := range bloom.words {
			bloom.words[i] = binary.LittleEndian.Uint64(wordBytes[i*8:])
		}
	}

	blockRows64, err := r.uvarint("block rows")
	if err != nil {
		return nil, err
	}
	if blockRows64 == 0 || blockRows64 > 1<<20 {
		return nil, r.fail("bad block rows")
	}
	blockRows := int(blockRows64)
	sectLens := make([]int, ncols)
	for i := range sectLens {
		if sectLens[i], err = r.length("column section length", 1); err != nil {
			return nil, err
		}
	}
	sects := make([][]byte, ncols)
	for i := range sects {
		if sects[i], err = r.bytes(sectLens[i], "column section"); err != nil {
			return nil, err
		}
	}
	if f, err := r.bytes(len(colFooter), "footer"); err != nil || string(f) != colFooter {
		if err != nil {
			return nil, err
		}
		return nil, r.fail("bad footer")
	}
	if r.off != len(data) {
		return nil, r.fail("trailing bytes after footer")
	}

	// Resolve the projection against the schema before touching any row
	// data, so unknown columns error identically on every path (even a
	// bloom-rejected point lookup).
	outCols := s.Columns
	if proj != nil && len(proj.Columns) > 0 {
		outCols = proj.Columns
	}
	colIdx := make([]int, len(outCols))
	outKinds := make([]Kind, len(outCols))
	for i, name := range outCols {
		j, err := s.columnIndex(name)
		if err != nil {
			return nil, err
		}
		colIdx[i] = j
		outKinds[i] = s.Kinds[j]
	}
	var preds []Pred
	var predIdx []int
	if proj != nil {
		preds = proj.Where
		predIdx = make([]int, len(preds))
		for i, p := range preds {
			j, err := s.columnIndex(p.Col)
			if err != nil {
				return nil, err
			}
			predIdx[i] = j
		}
	}
	out := &Snapshot{
		Aggregation: s.Aggregation,
		Level:       s.Level,
		Start:       s.Start,
		Columns:     append([]string(nil), outCols...),
		Kinds:       outKinds,
		TotalBefore: s.TotalBefore,
		TotalAfter:  s.TotalAfter,
		Windows:     s.Windows,
	}

	// Bloom pushdown: a negative point lookup ends here — no key or
	// value data is decoded at all.
	if proj != nil && proj.Key != "" && bloom != nil && !bloom.refHas(proj.Key) {
		if stats != nil {
			stats.bloomSkips++
		}
		return out, nil
	}

	keys, err := refDecodeKeySection(keySect, nrows)
	if err != nil {
		return nil, err
	}

	// Row selection: key filter first, then predicate pushdown per
	// column with block skipping.
	selected := make([]bool, nrows)
	nSel := 0
	if proj != nil && proj.Key != "" {
		for i, k := range keys {
			if k == proj.Key {
				selected[i] = true
				nSel++
			}
		}
	} else {
		for i := range selected {
			selected[i] = true
		}
		nSel = nrows
	}

	cols := make([]*refLazyCol, ncols) // parsed lazily, shared by preds and projection
	getCol := func(j int) (*refLazyCol, error) {
		if cols[j] == nil {
			c, err := refParseColSection(sects[j], nrows, blockRows)
			if err != nil {
				return nil, err
			}
			cols[j] = c
		}
		return cols[j], nil
	}

	for pi, p := range preds {
		if nSel == 0 {
			break
		}
		c, err := getCol(predIdx[pi])
		if err != nil {
			return nil, err
		}
		for b := range c.blocks {
			lo, hi := c.blockRange(b)
			any := false
			for i := lo; i < hi; i++ {
				if selected[i] {
					any = true
					break
				}
			}
			if !any {
				continue
			}
			m := &c.blocks[b]
			// Block fully outside the range: every row fails. NaN
			// bounds fail both comparisons, forcing the slow path.
			if m.max < p.Min || m.min > p.Max {
				for i := lo; i < hi; i++ {
					if selected[i] {
						selected[i] = false
						nSel--
					}
				}
				if stats != nil {
					stats.blocksSkipped++
				}
				continue
			}
			// Block fully inside: every row passes, nothing to decode.
			if m.min >= p.Min && m.max <= p.Max {
				if stats != nil {
					stats.blocksSkipped++
				}
				continue
			}
			if err := c.ensure(b, stats); err != nil {
				return nil, err
			}
			for i := lo; i < hi; i++ {
				if selected[i] && !p.matches(c.vals[i]) {
					selected[i] = false
					nSel--
				}
			}
		}
	}

	if nSel == 0 {
		return out, nil
	}

	// Materialize: decode only the blocks of projected columns that
	// still hold selected rows.
	flat := make([]float64, nSel*len(colIdx))
	out.Rows = make([]Row, 0, nSel)
	for oi, j := range colIdx {
		c, err := getCol(j)
		if err != nil {
			return nil, err
		}
		k := 0
		for b := range c.blocks {
			lo, hi := c.blockRange(b)
			decodedBlock := false
			for i := lo; i < hi; i++ {
				if !selected[i] {
					continue
				}
				if !decodedBlock {
					if err := c.ensure(b, stats); err != nil {
						return nil, err
					}
					decodedBlock = true
				}
				flat[k*len(colIdx)+oi] = c.vals[i]
				k++
			}
			if !decodedBlock && stats != nil {
				stats.blocksSkipped++
			}
		}
	}
	k := 0
	for i := 0; i < nrows; i++ {
		if !selected[i] {
			continue
		}
		out.Rows = append(out.Rows, Row{
			Key:    keys[i],
			Values: flat[k*len(colIdx) : (k+1)*len(colIdx) : (k+1)*len(colIdx)],
		})
		k++
	}
	return out, nil
}

// refDecodeKeySection decodes the dictionary and per-row key slice. All
// keys are substrings of one backing string, so a 30 k-row file costs
// one allocation for key bytes, not one per key.
func refDecodeKeySection(sect []byte, nrows int) ([]string, error) {
	r := &refColReader{data: sect}
	dictN, err := r.length("dictionary count", 1)
	if err != nil {
		return nil, err
	}
	concatLen, err := r.length("dictionary bytes", 1)
	if err != nil {
		return nil, err
	}
	concat, err := r.bytes(concatLen, "dictionary bytes")
	if err != nil {
		return nil, err
	}
	backing := string(concat)
	dict := make([]string, dictN)
	off := 0
	for i := 0; i < dictN; i++ {
		l, err := r.uvarint("dictionary entry length")
		if err != nil {
			return nil, err
		}
		if l > uint64(len(backing)-off) {
			return nil, r.fail("dictionary entry length")
		}
		dict[i] = backing[off : off+int(l)]
		off += int(l)
	}
	if off != len(backing) {
		return nil, r.fail("dictionary bytes not fully consumed")
	}
	idsPresent, err := r.byte1("ids flag")
	if err != nil {
		return nil, err
	}
	keys := make([]string, nrows)
	switch idsPresent {
	case 0:
		if dictN != nrows {
			return nil, r.fail("identity ids with mismatched dictionary")
		}
		copy(keys, dict)
	case 1:
		for i := 0; i < nrows; i++ {
			id, err := r.uvarint("row key id")
			if err != nil {
				return nil, err
			}
			if id >= uint64(dictN) {
				return nil, r.fail("row key id out of range")
			}
			keys[i] = dict[id]
		}
	default:
		return nil, r.fail("bad ids flag")
	}
	if r.off != len(sect) {
		return nil, r.fail("trailing bytes in key section")
	}
	return keys, nil
}
