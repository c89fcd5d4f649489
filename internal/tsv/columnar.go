package tsv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync"
)

// The columnar snapshot format. One file holds the same logical content
// as a TSV snapshot, laid out for selective reads:
//
//	magic "DNSC1\n"
//	header: column names + kinds, row count, collection statistics
//	key section (length-prefixed so it can be skipped):
//	    dictionary of distinct keys (concatenated bytes + lengths),
//	    optional per-row dictionary ids (omitted when keys are unique)
//	key bloom filter (deterministic, serialized)
//	column directory: rows-per-block + per-column section byte lengths
//	per-column sections: blocks of values, each with min/max bounds,
//	    an encoding tag and a length-prefixed payload
//	footer "CEND"
//
// Counter-style integral values use zigzag-delta varints, constant
// blocks store a single value, everything else is raw little-endian
// float64 — so decoding is bounded by varint/memcpy bandwidth, never by
// text parsing. The per-block min/max let predicate evaluation skip
// blocks wholesale; the bloom filter answers negative point lookups
// without touching row data. The directory lets a projection skip whole
// columns by slice arithmetic.
//
// Everything in the format is deterministic: the same snapshot always
// encodes to the same bytes, so cross-process and cross-backend golden
// comparisons stay valid.

// ErrBadColumnar matches (via errors.Is) every decode failure of the
// columnar codec: truncated files, hostile lengths, unknown encodings.
// The store wraps it in *CorruptError, so cascade-level skip/count
// handling is shared with the TSV codec.
var ErrBadColumnar = errors.New("tsv: malformed columnar snapshot")

const (
	colMagic  = "DNSC1\n"
	colFooter = "CEND"

	// colBlockRows is the number of values per column block. Small
	// enough that predicate pushdown has real skip granularity on
	// paper-scale files (30 k rows -> ~30 blocks), large enough that
	// per-block metadata stays negligible.
	colBlockRows = 1024

	encConst    = 0 // payload: one float64 (all values identical bits)
	encIntDelta = 1 // payload: zigzag varints of value deltas (integral values)
	encRaw      = 2 // payload: little-endian float64 per value
)

// colKindByte maps Kind to its single-byte file form and back.
func colKindByte(k Kind) byte {
	switch k {
	case Counter:
		return 'c'
	case Mode:
		return 'm'
	default:
		return 'g'
	}
}

func kindFromByte(b byte) (Kind, bool) {
	switch b {
	case 'c':
		return Counter, true
	case 'm':
		return Mode, true
	case 'g':
		return Gauge, true
	}
	return 0, false
}

// --- deterministic key bloom ------------------------------------------------

// colBloom is a serializable bloom filter over keys. Hashing is
// FNV-1a 64 finalized with the splitmix64 mixer — deterministic across
// processes, unlike a per-process keyed hash, so the filter can live in
// the file.
type colBloom struct {
	k     int
	words []uint64
}

const colBloomK = 7

// newColBloom sizes the filter for n keys at roughly 1% false
// positives (~10 bits per key, power-of-two rounded).
func newColBloom(n int) *colBloom {
	bitsWanted := uint64(64)
	for bitsWanted < uint64(n)*10 {
		bitsWanted <<= 1
	}
	return &colBloom{k: colBloomK, words: make([]uint64, bitsWanted/64)}
}

// bloomHash2 derives the two Kirsch–Mitzenmacher base hashes of s.
func bloomHash2(s string) (uint64, uint64) {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	// splitmix64 finalizer decorrelates the low bits FNV leaves weak.
	z := h + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return h, z | 1 // odd step so all k probes are distinct mod 2^m
}

func (f *colBloom) add(s string) {
	h1, h2 := bloomHash2(s)
	mask := uint64(len(f.words)*64 - 1)
	for i := 0; i < f.k; i++ {
		b := (h1 + uint64(i)*h2) & mask
		f.words[b/64] |= 1 << (b % 64)
	}
}

// --- encoding ---------------------------------------------------------------

// EncodeColumnar writes s in the columnar format. The same snapshot
// always produces the same bytes.
func EncodeColumnar(s *Snapshot, w io.Writer) (int64, error) {
	return encodeTo(w, s, encodeColumnar)
}

// encodeColumnar builds the columnar form in eb.file. The file is
// assembled once, in a buffer sized from its parts: the column sections
// are encoded first (the directory ahead of them carries their lengths)
// into eb.sects, and the key section is sized before it is written.
func encodeColumnar(s *Snapshot, eb *encodeBuf) error {
	ncols := len(s.Columns)
	for i := range s.Rows {
		if len(s.Rows[i].Values) != ncols {
			return fmt.Errorf("tsv: row %d has %d values for %d columns",
				i, len(s.Rows[i].Values), ncols)
		}
	}
	nrows := len(s.Rows)

	// Key dictionary in first-appearance order; per-row ids only when a
	// duplicate key makes them necessary.
	dictID := make(map[string]int, nrows)
	dictKeys := make([]string, 0, nrows)
	ids := make([]int, nrows)
	concatLen, keyLens, idLens := 0, 0, 0
	for i := range s.Rows {
		k := s.Rows[i].Key
		id, ok := dictID[k]
		if !ok {
			id = len(dictKeys)
			dictID[k] = id
			dictKeys = append(dictKeys, k)
			concatLen += len(k)
			keyLens += uvarintLen(uint64(len(k)))
		}
		ids[i] = id
		idLens += uvarintLen(uint64(id))
	}
	if len(dictKeys) == nrows {
		idLens = 0 // ids are the identity and are not stored
	}
	keySectLen := uvarintLen(uint64(len(dictKeys))) + uvarintLen(uint64(concatLen)) +
		concatLen + keyLens + 1 + idLens

	bloom := newColBloom(len(dictKeys))
	for _, k := range dictKeys {
		bloom.add(k)
	}

	// Column sections, back to back.
	sects := eb.sects[:0]
	sectLens := make([]int, ncols)
	colVals := make([]float64, nrows)
	for c := 0; c < ncols; c++ {
		for r := 0; r < nrows; r++ {
			colVals[r] = s.Rows[r].Values[c]
		}
		from := len(sects)
		for off := 0; off < nrows; off += colBlockRows {
			sects = encodeBlock(sects, colVals[off:min(off+colBlockRows, nrows)])
		}
		sectLens[c] = len(sects) - from
	}

	// The file's size from its parts, every small varint taken at its
	// longest: nothing below grows buf.
	size := len(colMagic) + (8+2*ncols)*binary.MaxVarintLen64 + 1 + keySectLen +
		8*len(bloom.words) + len(sects) + len(colFooter)
	for _, name := range s.Columns {
		size += len(name) + 1
	}

	buf := slices.Grow(eb.file[:0], size)
	buf = append(buf, colMagic...)
	buf = binary.AppendUvarint(buf, uint64(ncols))
	for i, name := range s.Columns {
		buf = binary.AppendUvarint(buf, uint64(len(name)))
		buf = append(buf, name...)
		buf = append(buf, colKindByte(s.Kinds[i]))
	}
	buf = binary.AppendUvarint(buf, uint64(nrows))
	buf = binary.AppendUvarint(buf, s.TotalBefore)
	buf = binary.AppendUvarint(buf, s.TotalAfter)
	buf = binary.AppendUvarint(buf, uint64(s.Windows))

	buf = binary.AppendUvarint(buf, uint64(keySectLen))
	buf = binary.AppendUvarint(buf, uint64(len(dictKeys)))
	buf = binary.AppendUvarint(buf, uint64(concatLen))
	for _, k := range dictKeys {
		buf = append(buf, k...)
	}
	for _, k := range dictKeys {
		buf = binary.AppendUvarint(buf, uint64(len(k)))
	}
	if len(dictKeys) == nrows {
		buf = append(buf, 0) // ids are the identity
	} else {
		buf = append(buf, 1)
		for _, id := range ids {
			buf = binary.AppendUvarint(buf, uint64(id))
		}
	}

	buf = append(buf, byte(bloom.k))
	buf = binary.AppendUvarint(buf, uint64(len(bloom.words)))
	for _, wd := range bloom.words {
		buf = binary.LittleEndian.AppendUint64(buf, wd)
	}

	// The directory, so a reader can skip columns, then the sections.
	buf = binary.AppendUvarint(buf, colBlockRows)
	for _, n := range sectLens {
		buf = binary.AppendUvarint(buf, uint64(n))
	}
	buf = append(buf, sects...)
	eb.file, eb.sects = append(buf, colFooter...), sects
	return nil
}

// uvarintLen is the number of bytes binary.AppendUvarint writes for v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// encodeBlock appends one block: min/max, encoding tag, payload.
func encodeBlock(out []byte, vals []float64) []byte {
	mn, mx := math.Inf(1), math.Inf(-1)
	hasNaN := false
	firstBits := math.Float64bits(vals[0])
	allConst := true
	allInt := true
	for _, v := range vals {
		if math.IsNaN(v) {
			hasNaN = true
			allInt = false
			continue
		}
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
		if math.Float64bits(v) != firstBits {
			allConst = false
		}
		if allInt && !integralFloat(v) {
			allInt = false
		}
	}
	if hasNaN {
		// NaN never matches a predicate but the block may hold rows
		// that do: NaN bounds force per-row evaluation.
		mn, mx = math.NaN(), math.NaN()
		allConst = false
	}
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(mn))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(mx))
	switch {
	case allConst:
		out = append(out, encConst)
		out = binary.AppendUvarint(out, 8)
		out = binary.LittleEndian.AppendUint64(out, firstBits)
	case allInt:
		out = append(out, encIntDelta)
		// The payload follows its own length: size it, then write it in
		// place.
		size, prev := 0, int64(0)
		for _, v := range vals {
			size += uvarintLen(zigzag(int64(v) - prev))
			prev = int64(v)
		}
		out = binary.AppendUvarint(out, uint64(size))
		prev = 0
		for _, v := range vals {
			out = binary.AppendUvarint(out, zigzag(int64(v)-prev))
			prev = int64(v)
		}
	default:
		out = append(out, encRaw)
		out = binary.AppendUvarint(out, uint64(8*len(vals)))
		for _, v := range vals {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
	}
	return out
}

// integralFloat reports whether v round-trips exactly through int64:
// integral, within 2^53, and not the negative zero (whose sign bit an
// integer cannot carry).
func integralFloat(v float64) bool {
	if v != math.Trunc(v) || math.Abs(v) > 1<<53 {
		return false
	}
	return !(v == 0 && math.Signbit(v))
}

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// --- decoding ---------------------------------------------------------------

// colStats counts the selective-read work a single decode did; the
// store aggregates them into metrics.
type colStats struct {
	blocksDecoded uint64
	blocksSkipped uint64
	bloomSkips    uint64
	readBytes     uint64
	readCalls     uint64
}

// colReader is a bounds-checked cursor over file bytes held in memory.
// Every read failure is a typed ErrBadColumnar: the decoder must never
// panic or allocate proportionally to a hostile length field.
//
// data is either a whole section (rest == 0) or a window of the file
// whose tail was not read yet (rest > 0 bytes follow it). Lengths are
// always checked against what the file still holds, not against the
// window; a read that runs off the window's end sets short, telling
// colFile.window to retry with a larger one.
type colReader struct {
	data  []byte
	off   int
	base  int64 // file offset of data[0], for error messages
	rest  int64
	short bool
}

func (r *colReader) fail(what string) error {
	return fmt.Errorf("%w: %s at byte %d", ErrBadColumnar, what, r.base+int64(r.off))
}

// remaining is how many file bytes lie at or after the cursor.
func (r *colReader) remaining() uint64 {
	return uint64(len(r.data)-r.off) + uint64(r.rest)
}

func (r *colReader) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.short = n == 0 && r.rest > 0
		return 0, r.fail("bad varint: " + what)
	}
	r.off += n
	return v, nil
}

// uvarint1 reads the uvarint at the cursor if it is a single byte, as
// nearly every key length, row id and counter delta is: small enough to
// inline into the walks over them, which fall back to uvarint.
func (r *colReader) uvarint1() (uint64, bool) {
	if r.off < len(r.data) {
		if b := r.data[r.off]; b < 0x80 {
			r.off++
			return uint64(b), true
		}
	}
	return 0, false
}

// length reads a uvarint that counts not-yet-read items each at least
// minSize bytes, rejecting values the remaining input cannot hold —
// the over-allocation guard.
func (r *colReader) length(what string, minSize int) (int, error) {
	v, err := r.uvarint(what)
	if err != nil {
		return 0, err
	}
	if minSize < 1 {
		minSize = 1
	}
	if v > r.remaining()/uint64(minSize) {
		return 0, r.fail("oversized length: " + what)
	}
	return int(v), nil
}

func (r *colReader) bytes(n int, what string) ([]byte, error) {
	if n < 0 || n > len(r.data)-r.off {
		r.short = n >= 0 && uint64(n) <= r.remaining()
		return nil, r.fail("truncated: " + what)
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *colReader) byte1(what string) (byte, error) {
	b, err := r.bytes(1, what)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *colReader) f64(what string) (float64, error) {
	b, err := r.bytes(8, what)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
}

// lazyCol is one column's parsed block metadata with per-block lazy
// value decoding. Its slices are reused from file to file.
type lazyCol struct {
	nrows     int
	blockRows int
	blocks    []colBlockMeta
	vals      []float64 // sized on first decode; only decoded blocks hold values
	decoded   []bool
}

type colBlockMeta struct {
	min, max float64
	enc      byte
	payload  []byte
}

// parse scans a column section's block headers, validating payload
// bounds without decoding any values.
func (c *lazyCol) parse(sect []byte, base int64, nrows, blockRows int) error {
	nblocks := 0
	if nrows > 0 {
		nblocks = (nrows + blockRows - 1) / blockRows
	}
	c.nrows, c.blockRows = nrows, blockRows
	c.blocks = c.blocks[:0]
	r := &colReader{data: sect, base: base}
	for b := 0; b < nblocks; b++ {
		mn, err := r.f64("block min")
		if err != nil {
			return err
		}
		mx, err := r.f64("block max")
		if err != nil {
			return err
		}
		enc, err := r.byte1("block encoding")
		if err != nil {
			return err
		}
		plen, err := r.length("block payload", 1)
		if err != nil {
			return err
		}
		payload, err := r.bytes(plen, "block payload")
		if err != nil {
			return err
		}
		count := blockRows
		if b == nblocks-1 {
			count = nrows - b*blockRows
		}
		switch enc {
		case encConst:
			if plen != 8 {
				return r.fail("const block payload size")
			}
		case encRaw:
			if plen != 8*count {
				return r.fail("raw block payload size")
			}
		case encIntDelta:
			// Lengths are validated on decode (varint count must match).
		default:
			return r.fail("unknown block encoding")
		}
		c.blocks = append(c.blocks, colBlockMeta{min: mn, max: mx, enc: enc, payload: payload})
	}
	if r.off != len(sect) {
		return r.fail("trailing bytes in column section")
	}
	c.decoded = growSlice(c.decoded, nblocks)
	clear(c.decoded)
	return nil
}

// blockRange returns the row range [lo, hi) of block b.
func (c *lazyCol) blockRange(b int) (int, int) {
	lo := b * c.blockRows
	hi := lo + c.blockRows
	if hi > c.nrows {
		hi = c.nrows
	}
	return lo, hi
}

// ensure decodes block b into c.vals.
func (c *lazyCol) ensure(b int, stats *colStats) error {
	if c.decoded[b] {
		return nil
	}
	c.vals = growSlice(c.vals, c.nrows)
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
		r := colReader{data: m.payload}
		prev := int64(0)
		for i := lo; i < hi; i++ {
			u, ok := r.uvarint1()
			if !ok {
				var err error
				if u, err = r.uvarint("block delta"); err != nil {
					return err
				}
			}
			prev += unzigzag(u)
			c.vals[i] = float64(prev)
		}
		if r.off != len(m.payload) {
			return r.fail("trailing bytes in delta block")
		}
	}
	c.decoded[b] = true
	stats.blocksDecoded++
	return nil
}

// growSlice returns s with length n, reallocating only when its
// capacity is short. The contents are unspecified.
func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// DecodeColumnar decodes a columnar snapshot file in full. Aggregation,
// Level and Start live in the file name, as with the TSV codec, and are
// left zero.
func DecodeColumnar(data []byte) (*Snapshot, error) {
	return decodeColumnar(data, nil)
}

// IsColumnar reports whether data begins with the columnar file magic —
// the format sniff tools use to pick a decoder for a snapshot file.
func IsColumnar(data []byte) bool {
	return len(data) >= len(colMagic) && string(data[:len(colMagic)]) == colMagic
}

// decodeColumnar is the in-memory form of the section reader: the same
// code the store runs over an open file, here over a bytes.Reader. The
// result is exactly what the test oracle applyProjection makes of the
// full decode.
func decodeColumnar(data []byte, proj *Projection) (*Snapshot, error) {
	f := colFilePool.Get().(*colFile)
	defer f.release()
	if err := f.open(bytes.NewReader(data), int64(len(data)), proj, nil); err != nil {
		return nil, err
	}
	return f.snapshot(), nil
}

// colProbeBytes is the first read of every file. The header is not
// length-prefixed, so its size is unknown until parsed: 512 bytes hold
// the header of the widest standard aggregation (48 columns, ~400
// bytes), and window doubles the read for anything wider.
const colProbeBytes = 512

// colFile reads one DNSC1 file section by section through an
// io.ReaderAt: header, bloom + column directory and footer always, the
// key section unless the bloom rejects a point lookup, and of the
// column sections only those the projection or a predicate names. The
// text codec's reader (openText) fills the same fields from a TSV file,
// so what reads an opened file serves both.
//
// A colFile is pooled scratch. Every slice below is reused from file to
// file, and every []byte is a view into arena that dies at the next
// open: whatever outlives the file (a materialized Snapshot, the
// accumulator's keys) copies out of it first.
type colFile struct {
	src   io.ReaderAt
	size  int64
	arena []byte // every byte read from the current file
	whole []byte // the file, when all of it is wanted: reads are views

	// The frame: own, parsed from the current file, or one an earlier
	// read of it checked, which is shared and never written.
	*colFrame
	own colFrame

	// The projection resolved against this file's schema.
	colIdx  []int
	predIdx []int

	// Key section: dictionary entry d is dict[dictOff[d]:dictOff[d+1]];
	// row i holds entry ids[i], or entry i when ids is nil. A TSV
	// file's keys are copied into keys, and dict is that.
	dict    []byte
	dictOff []int
	ids     []int
	keys    []byte

	// The selected rows, ascending, and the column sections read so far.
	// colSlot maps a file column to its index in cols, -1 while unread.
	sel     []int
	cols    []lazyCol
	colSlot []int32

	counts colStats // what reading the current file did
}

// colFrame is what a file's frame checks validate and every later read
// of the file relies on: the header, the bloom and the column
// directory, up to a footer found in place.
type colFrame struct {
	// Header.
	names       [][]byte
	kinds       []Kind
	nrows       int
	totalBefore uint64
	totalAfter  uint64
	windows     int
	keyOff      int64
	keyLen      int

	// Bloom and column directory.
	bloomK    int
	bloom     []byte // the filter's words as stored: little-endian uint64s
	blockRows int
	sectOff   []int64
	sectLen   []int
	footOff   int64
}

// cloneInto makes c a copy of fr that owns its memory, the bloom and
// the names in one buffer, and returns about how many bytes c holds.
func (fr *colFrame) cloneInto(c *colFrame) int {
	*c = *fr
	n := len(fr.bloom)
	for _, name := range fr.names {
		n += len(name)
	}
	buf := append(make([]byte, 0, n), fr.bloom...)
	c.bloom, c.names = buf[:len(buf):len(buf)], make([][]byte, len(fr.names))
	for i, name := range fr.names {
		buf = append(buf, name...)
		c.names[i] = buf[len(buf)-len(name) : len(buf) : len(buf)]
	}
	c.kinds = slices.Clone(fr.kinds)
	c.sectOff, c.sectLen = slices.Clone(fr.sectOff), slices.Clone(fr.sectLen)
	return n + 64*len(c.names)
}

var colFilePool = sync.Pool{New: func() any { return new(colFile) }}

// detach drops what would pin f's source while f waits in a pool.
func (f *colFile) detach() { f.src, f.colFrame = nil, nil }

// release returns f to the pool.
func (f *colFile) release() {
	f.detach()
	colFilePool.Put(f)
}

// open reads and validates what proj needs of the file behind src, in
// the order the whole-buffer decoder used to check it: the frame first
// (header, bloom, directory, section extents, footer), then the
// projection against the schema — so an unknown column errors
// identically on every path, even a bloom-rejected point lookup — then
// bloom, keys, predicates, and the projected blocks that still hold
// selected rows. With fr set, the frame is fr, which an earlier read of
// the same file validated, and is not read again. On a nil return the
// file's selected rows are fully decoded; nothing is left to fail in
// snapshot or in a fold.
func (f *colFile) open(src io.ReaderAt, size int64, proj *Projection, fr *colFrame) error {
	f.attach(src, size)
	f.sel = f.sel[:0]
	f.cols = f.cols[:0]
	var key string
	var preds []Pred
	if proj != nil {
		key, preds = proj.Key, proj.Where
	}
	if proj.empty() {
		// Every byte is needed: one read, and every section a view.
		whole, err := f.read(0, int(size))
		if err != nil {
			return err
		}
		f.whole = whole
	}
	if fr != nil {
		f.colFrame = fr
	} else if err := f.window(0, colProbeBytes, (*colFile).parseHeader); err != nil {
		return err
	} else if err := f.window(f.keyOff+int64(f.keyLen), f.metaGuess(), (*colFile).parseMeta); err != nil {
		return err
	} else if err := f.checkFooter(); err != nil {
		return err
	}
	if err := f.resolve(proj); err != nil {
		return err
	}
	// Bloom pushdown: a negative point lookup ends here — no key or
	// value section is even read.
	if key != "" && f.bloomK > 0 && !bloomHas(f.bloom, f.bloomK, key) {
		f.counts.bloomSkips++
		return nil
	}
	if err := f.readKeys(key); err != nil {
		return err
	}
	if err := f.filter(preds); err != nil {
		return err
	}
	return f.decodeSelected()
}

// attach points f at a new file, dropping every view of the last one
// and zeroing the counters.
func (f *colFile) attach(src io.ReaderAt, size int64) {
	f.src, f.size, f.counts, f.colFrame = src, size, colStats{}, &f.own
	f.arena, f.whole = f.arena[:0], nil
}

// read returns file bytes [off, off+n), read into the arena. Callers
// have checked n against the file size, so the arena outgrows the file
// by no more than the windows read twice.
func (f *colFile) read(off int64, n int) ([]byte, error) {
	if f.whole != nil {
		return f.whole[off : off+int64(n) : off+int64(n)], nil
	}
	start := len(f.arena)
	f.arena = slices.Grow(f.arena, n)[:start+n]
	b := f.arena[start : start+n : start+n]
	if n == 0 {
		return b, nil
	}
	f.counts.readBytes += uint64(n)
	f.counts.readCalls++
	if m, err := f.src.ReadAt(b, off); m < n {
		if err == io.EOF {
			// Shorter than its size said: cut under the reader.
			return nil, fmt.Errorf("%w: truncated: file ends at byte %d", ErrBadColumnar, off+int64(m))
		}
		return nil, err
	}
	return b, nil
}

// window parses the file from off, where the parsed structure has no
// length prefix: it reads guess bytes and doubles the read for as long
// as parse runs off the window's end before the file's.
func (f *colFile) window(off int64, guess int, parse func(*colFile, *colReader) error) error {
	mark := len(f.arena)
	for {
		n := int(min(int64(guess), f.size-off))
		f.arena = f.arena[:mark]
		win, err := f.read(off, n)
		if err != nil {
			return err
		}
		r := colReader{data: win, base: off, rest: f.size - off - int64(n)}
		if err = parse(f, &r); !r.short {
			return err
		}
		guess = 2 * n
	}
}

func (f *colFile) parseHeader(r *colReader) error {
	if m, err := r.bytes(len(colMagic), "magic"); err != nil {
		return err
	} else if string(m) != colMagic {
		return r.fail("bad magic")
	}
	ncols, err := r.length("column count", 2)
	if err != nil {
		return err
	}
	f.names, f.kinds = f.names[:0], f.kinds[:0]
	for i := 0; i < ncols; i++ {
		nameLen, err := r.length("column name", 1)
		if err != nil {
			return err
		}
		name, err := r.bytes(nameLen, "column name")
		if err != nil {
			return err
		}
		kb, err := r.byte1("column kind")
		if err != nil {
			return err
		}
		kind, ok := kindFromByte(kb)
		if !ok {
			return r.fail("unknown column kind")
		}
		f.names = append(f.names, name)
		f.kinds = append(f.kinds, kind)
	}
	if repeats(f.names) {
		return r.fail("repeated column name")
	}
	if f.nrows, err = r.length("row count", 1); err != nil {
		return err
	}
	if f.totalBefore, err = r.uvarint("total_before"); err != nil {
		return err
	}
	if f.totalAfter, err = r.uvarint("total_after"); err != nil {
		return err
	}
	windows, err := r.uvarint("windows")
	if err != nil {
		return err
	}
	if windows > uint64(math.MaxInt32) {
		return r.fail("oversized windows")
	}
	f.windows = int(windows)
	if f.keyLen, err = r.length("key section", 1); err != nil {
		return err
	}
	f.keyOff = r.base + int64(r.off)
	return nil
}

// metaGuess sizes the read of bloom + directory so that one ReadAt
// holds both for any file EncodeColumnar wrote: its bloom is the power
// of two at or above 10 bits per distinct key, and there are at most
// nrows of those.
func (f *colFile) metaGuess() int {
	bloomBits := 64
	for bloomBits < f.nrows*10 {
		bloomBits <<= 1
	}
	return 1 + binary.MaxVarintLen64 + bloomBits/8 + binary.MaxVarintLen64 + 3*len(f.names)
}

func (f *colFile) parseMeta(r *colReader) error {
	bloomK, err := r.byte1("bloom k")
	if err != nil {
		return err
	}
	f.bloomK, f.bloom = 0, nil
	if bloomK > 0 {
		if bloomK > 32 {
			return r.fail("oversized bloom k")
		}
		nwords, err := r.length("bloom words", 8)
		if err != nil {
			return err
		}
		if nwords == 0 || bits.OnesCount(uint(nwords)) != 1 {
			return r.fail("bloom size not a power of two")
		}
		if f.bloom, err = r.bytes(nwords*8, "bloom bits"); err != nil {
			return err
		}
		f.bloomK = int(bloomK)
	}
	blockRows, err := r.uvarint("block rows")
	if err != nil {
		return err
	}
	if blockRows == 0 || blockRows > 1<<20 {
		return r.fail("bad block rows")
	}
	f.blockRows = int(blockRows)
	f.sectLen = f.sectLen[:0]
	for range f.names {
		n, err := r.length("column section length", 1)
		if err != nil {
			return err
		}
		f.sectLen = append(f.sectLen, n)
	}
	// The sections follow the directory back to back and the footer
	// follows them: their extents must fit the file.
	f.sectOff = f.sectOff[:0]
	off := r.base + int64(r.off)
	for _, n := range f.sectLen {
		f.sectOff = append(f.sectOff, off)
		if off += int64(n); off > f.size {
			return fmt.Errorf("%w: truncated: column section at byte %d", ErrBadColumnar, f.size)
		}
	}
	f.footOff = off
	return nil
}

func (f *colFile) checkFooter() error {
	if f.size-f.footOff < int64(len(colFooter)) {
		return fmt.Errorf("%w: truncated: footer at byte %d", ErrBadColumnar, f.footOff)
	}
	foot, err := f.read(f.footOff, len(colFooter))
	if err != nil {
		return err
	}
	if string(foot) != colFooter {
		return fmt.Errorf("%w: bad footer at byte %d", ErrBadColumnar, f.footOff)
	}
	if end := f.footOff + int64(len(colFooter)); end != f.size {
		return fmt.Errorf("%w: trailing bytes after footer at byte %d", ErrBadColumnar, end)
	}
	return nil
}

// columnIndex resolves name against the header without allocating.
func (f *colFile) columnIndex(name string) (int, error) {
	for j, n := range f.names {
		if string(n) == name {
			return j, nil
		}
	}
	return 0, &UnknownColumnError{Column: name}
}

// repeats reports whether a column name appears twice: a header that
// names one is malformed in either codec, and Put refuses to write one.
// Every header a read parses is checked, so the names go into a small
// open-addressed table by hash rather than being compared pairwise.
func repeats[S ~string | ~[]byte](names []S) bool {
	var slots [512]uint16 // 1 + the index of a name, from its hash on
	for i, n := range names {
		h := uint64(14695981039346656037) // FNV-1a
		for k := 0; k < len(n); k++ {
			h = (h ^ uint64(n[k])) * 1099511628211
		}
		for s := h % 512; i < len(slots)-1; s = (s + 1) % 512 {
			if slots[s] == 0 {
				slots[s] = uint16(i + 1)
				break
			}
			if string(names[slots[s]-1]) == string(n) {
				return true
			}
		}
		// Past what the table holds, a name is compared with every other.
		if i >= len(slots)-1 && slices.ContainsFunc(names[:i], func(m S) bool { return string(m) == string(n) }) {
			return true
		}
	}
	return false
}

// resolve maps the projected and predicate columns to file columns.
func (f *colFile) resolve(proj *Projection) error {
	f.colIdx, f.predIdx = f.colIdx[:0], f.predIdx[:0]
	if proj == nil || len(proj.Columns) == 0 {
		for j := range f.names {
			f.colIdx = append(f.colIdx, j)
		}
	} else {
		for _, name := range proj.Columns {
			j, err := f.columnIndex(name)
			if err != nil {
				return err
			}
			f.colIdx = append(f.colIdx, j)
		}
	}
	if proj != nil {
		for _, p := range proj.Where {
			j, err := f.columnIndex(p.Col)
			if err != nil {
				return err
			}
			f.predIdx = append(f.predIdx, j)
		}
	}
	f.colSlot = growSlice(f.colSlot, len(f.names))
	for j := range f.colSlot {
		f.colSlot[j] = -1
	}
	return nil
}

// bloomHas probes the stored filter in place: bit b of the word array
// is bit b%8 of byte b/8, the words being little-endian.
func bloomHas(words []byte, k int, key string) bool {
	h1, h2 := bloomHash2(key)
	mask := uint64(len(words)*8 - 1)
	for i := 0; i < k; i++ {
		b := (h1 + uint64(i)*h2) & mask
		if words[b/8]&(1<<(b%8)) == 0 {
			return false
		}
	}
	return true
}

// readKeys reads and validates the key section — every dictionary
// length and every row id, whatever the query — and sets the initial
// row selection: every row, or with a key the rows that hold it. Keys
// stay where they were read; dictKey returns views.
func (f *colFile) readKeys(key string) error {
	sect, err := f.read(f.keyOff, f.keyLen)
	if err != nil {
		return err
	}
	r := &colReader{data: sect, base: f.keyOff}
	dictN, err := r.length("dictionary count", 1)
	if err != nil {
		return err
	}
	concatLen, err := r.length("dictionary bytes", 1)
	if err != nil {
		return err
	}
	if f.dict, err = r.bytes(concatLen, "dictionary bytes"); err != nil {
		return err
	}
	// With a key, the dictionary walk doubles as the search: only
	// entries of the key's length are compared.
	f.dictOff = growSlice(f.dictOff, dictN+1)
	f.sel = f.sel[:0]
	off := 0
	for d := 0; d < dictN; d++ {
		l, ok := r.uvarint1()
		if !ok {
			if l, err = r.uvarint("dictionary entry length"); err != nil {
				return err
			}
		}
		if l > uint64(len(f.dict)-off) {
			return r.fail("dictionary entry length")
		}
		f.dictOff[d] = off
		if key != "" && int(l) == len(key) && string(f.dict[off:off+int(l)]) == key {
			f.sel = append(f.sel, d) // entries for now; rows below
		}
		off += int(l)
	}
	f.dictOff[dictN] = off
	if off != len(f.dict) {
		return r.fail("dictionary bytes not fully consumed")
	}
	idsPresent, err := r.byte1("ids flag")
	if err != nil {
		return err
	}
	switch idsPresent {
	case 0:
		if dictN != f.nrows {
			return r.fail("identity ids with mismatched dictionary")
		}
		f.ids = nil
	case 1:
		f.ids = growSlice(f.ids, f.nrows)
		if f.nrows == 0 {
			f.ids = f.ids[:0:0] // not nil: nil means identity
		}
		for i := range f.ids {
			id, ok := r.uvarint1()
			if !ok {
				if id, err = r.uvarint("row key id"); err != nil {
					return err
				}
			}
			if id >= uint64(dictN) {
				return r.fail("row key id out of range")
			}
			f.ids[i] = int(id)
		}
	default:
		return r.fail("bad ids flag")
	}
	if r.off != len(sect) {
		return r.fail("trailing bytes in key section")
	}

	switch {
	case key == "":
		f.sel = growSlice(f.sel, f.nrows)
		for i := range f.sel {
			f.sel[i] = i
		}
	case f.ids != nil && len(f.sel) > 0:
		// Rows share entries: select the rows that hold a matching one.
		hits := len(f.sel)
		for i, id := range f.ids {
			if slices.Contains(f.sel[:hits], id) {
				f.sel = append(f.sel, i)
			}
		}
		f.sel = f.sel[:copy(f.sel, f.sel[hits:])]
	}
	return nil
}

// dictID returns the dictionary entry row i holds.
func (f *colFile) dictID(i int) int {
	if f.ids == nil {
		return i
	}
	return f.ids[i]
}

// dictKey returns dictionary entry d as a view into the arena.
func (f *colFile) dictKey(d int) []byte { return f.dict[f.dictOff[d]:f.dictOff[d+1]] }

// col returns file column j's block metadata, reading and parsing its
// section on first use. The pointer is valid until the next col call.
func (f *colFile) col(j int) (*lazyCol, error) {
	if s := f.colSlot[j]; s >= 0 {
		return &f.cols[s], nil
	}
	sect, err := f.read(f.sectOff[j], f.sectLen[j])
	if err != nil {
		return nil, err
	}
	s := len(f.cols)
	if s < cap(f.cols) {
		f.cols = f.cols[:s+1] // reuse the slot's slices
	} else {
		f.cols = append(f.cols, lazyCol{})
	}
	c := &f.cols[s]
	if err := c.parse(sect, f.sectOff[j], f.nrows, f.blockRows); err != nil {
		f.cols = f.cols[:s]
		return nil, err
	}
	f.colSlot[j] = int32(s)
	return c, nil
}

// blockEnd returns the end of the run of selected rows, starting at
// sel[from], that lie in one block, and that block.
func (f *colFile) blockEnd(from int) (to, block int) {
	block = f.sel[from] / f.blockRows
	hi := (block + 1) * f.blockRows
	for to = from + 1; to < len(f.sel) && f.sel[to] < hi; to++ {
	}
	return to, block
}

// filter narrows the selection by predicate pushdown, per column with
// block skipping. Blocks without a selected row are not even looked at.
func (f *colFile) filter(preds []Pred) error {
	for pi, p := range preds {
		if len(f.sel) == 0 {
			break
		}
		c, err := f.col(f.predIdx[pi])
		if err != nil {
			return err
		}
		kept := 0
		for from := 0; from < len(f.sel); {
			to, b := f.blockEnd(from)
			run := f.sel[from:to]
			from = to
			m := &c.blocks[b]
			switch {
			case m.max < p.Min || m.min > p.Max:
				// Block fully outside the range: every row fails. NaN
				// bounds fail both comparisons, forcing the slow path.
				f.counts.blocksSkipped++
			case m.min >= p.Min && m.max <= p.Max:
				// Block fully inside: every row passes, nothing to decode.
				f.counts.blocksSkipped++
				kept += copy(f.sel[kept:], run)
			default:
				if err := c.ensure(b, &f.counts); err != nil {
					return err
				}
				for _, i := range run {
					if p.matches(c.vals[i]) {
						f.sel[kept] = i
						kept++
					}
				}
			}
		}
		f.sel = f.sel[:kept]
	}
	return nil
}

// decodeSelected decodes only the blocks of projected columns that
// still hold selected rows; a point hit decodes one block per column.
func (f *colFile) decodeSelected() error {
	if len(f.sel) == 0 {
		return nil
	}
	for _, j := range f.colIdx {
		c, err := f.col(j)
		if err != nil {
			return err
		}
		held := 0
		for from := 0; from < len(f.sel); held++ {
			to, b := f.blockEnd(from)
			if err := c.ensure(b, &f.counts); err != nil {
				return err
			}
			from = to
		}
		f.counts.blocksSkipped += uint64(len(c.blocks) - held)
	}
	return nil
}

// projected returns the decoded values of projected column oi, indexed
// by row; only selected rows hold a value.
func (f *colFile) projected(oi int) []float64 {
	return f.cols[f.colSlot[f.colIdx[oi]]].vals
}

// columnNames returns the projected schema as strings the caller owns:
// substrings of one backing string, since a full Get names 48 columns.
func (f *colFile) columnNames() []string {
	var sb strings.Builder
	for _, j := range f.colIdx {
		sb.Write(f.names[j])
	}
	backing, out := sb.String(), make([]string, len(f.colIdx))
	for oi, j := range f.colIdx {
		n := len(f.names[j])
		out[oi], backing = backing[:n], backing[n:]
	}
	return out
}

// snapshot materializes the opened file's selected rows: the form Get
// and GetProjected return. Keys are substrings of one backing string
// and values slices of one array, so a 30 k-row file costs a handful
// of allocations, not one per row.
func (f *colFile) snapshot() *Snapshot {
	out := &Snapshot{
		Columns:     f.columnNames(),
		Kinds:       make([]Kind, len(f.colIdx)),
		TotalBefore: f.totalBefore,
		TotalAfter:  f.totalAfter,
		Windows:     f.windows,
	}
	for oi, j := range f.colIdx {
		out.Kinds[oi] = f.kinds[j]
	}
	if len(f.sel) == 0 {
		return out
	}
	ncols := len(f.colIdx)
	flat := make([]float64, len(f.sel)*ncols)
	for oi := range f.colIdx {
		vals := f.projected(oi)
		for k, i := range f.sel {
			flat[k*ncols+oi] = vals[i]
		}
	}
	var sb strings.Builder
	if len(f.sel) == f.nrows {
		sb.Grow(len(f.dict)) // exact unless rows share keys
	}
	for _, i := range f.sel {
		sb.Write(f.dictKey(f.dictID(i)))
	}
	backing := sb.String()
	out.Rows = make([]Row, len(f.sel))
	for k, i := range f.sel {
		n := len(f.dictKey(f.dictID(i)))
		out.Rows[k] = Row{Key: backing[:n], Values: flat[k*ncols : (k+1)*ncols : (k+1)*ncols]}
		backing = backing[n:]
	}
	return out
}
