package hll

import (
	"errors"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"
)

// promotions counts sparse→dense promotions across every sketch in the
// process. Sketches are single-owner, but distinct sketches promote
// concurrently on different engine workers, hence the atomic.
var promotions atomic.Uint64

// Promotions returns the process-wide count of sparse→dense promotions
// — the signal that objects are outgrowing the compact representation
// (observatory.InstrumentPlatform exposes it as a metric).
func Promotions() uint64 { return promotions.Load() }

// Sketch is a HyperLogLog counter. Create one with New. Sketch is not
// safe for concurrent use.
type Sketch struct {
	p     uint8
	dense bool

	// Sparse form: packed idx<<rankBits|rank entries. sparse is sorted
	// by register index and deduplicated (max rank wins); buf is the
	// unsorted insertion buffer folded in by compact. addSparse keeps the
	// two disjoint by register index, so len(sparse)+len(buf) is the
	// number of distinct registers set.
	sparse []uint32
	buf    []uint32

	// Dense form: 2^p registers plus the incrementally-maintained rank
	// histogram (hist[r] = number of registers holding r; hist[0] is the
	// zero-register count), so Estimate is O(64) instead of O(2^p).
	// Allocated at first promotion and kept across Reset.
	regs []uint8
	hist []uint32
}

const (
	// rankBits packs the rank into the low bits of a sparse entry; the
	// register index occupies the bits above (p <= 18 fits, and
	// rank <= 65-p <= 61 < 64).
	rankBits = 6
	rankMask = 1<<rankBits - 1
	// histLen covers every possible rank value (1..61) plus slot 0 for
	// empty registers.
	histLen = 64
	// bufCap bounds the unsorted insertion buffer; a full buffer is
	// merged into the sorted sparse list.
	bufCap = 32
)

// ErrPrecision is returned for precisions outside [4, 18].
var ErrPrecision = errors.New("hll: precision must be in [4, 18]")

// New returns a sketch with 2^p registers. p=14 gives a typical error
// of about 0.81 %; the Observatory default is p=10 (3.25 %).
func New(p uint8) (*Sketch, error) {
	s := new(Sketch)
	if err := s.Init(p); err != nil {
		return nil, err
	}
	return s, nil
}

// Init makes s an empty sketch with 2^p registers, in place — for
// owners that embed their sketches in one allocation.
func (s *Sketch) Init(p uint8) error {
	if p < 4 || p > 18 {
		return ErrPrecision
	}
	*s = Sketch{p: p}
	return nil
}

// MustNew is New for static configuration; it panics on bad precision.
func MustNew(p uint8) *Sketch {
	s, err := New(p)
	if err != nil {
		panic(err)
	}
	return s
}

// HashString returns the fixed 64-bit hash of s that Add feeds to the
// sketch. It is deterministic across processes and runs — Observatory
// time aggregation averages estimates from different windows (and
// merges snapshots from different runs), which only makes sense when
// the same key hashes identically everywhere. Callers that add one
// string to several sketches should hash once and use AddHash.
func HashString(s string) uint64 {
	h := uint64(14695981039346656037) // FNV-1a, then finalized below
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return mix64(h)
}

// HashUint64 returns the fixed 64-bit hash of v, matching HashString's
// determinism contract.
func HashUint64(v uint64) uint64 {
	return mix64(v + 0x9e3779b97f4a7c15)
}

// mix64 is the SplitMix64 finalizer: full avalanche, so the FNV prefix
// only needs to be collision-resistant, not well distributed.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Add observes str.
func (s *Sketch) Add(str string) { s.AddHash(HashString(str)) }

// AddUint64 observes a numeric value.
func (s *Sketch) AddUint64(v uint64) { s.AddHash(HashUint64(v)) }

// AddHash observes a value by its 64-bit hash (HashString/HashUint64 or
// a caller-memoized copy of one). This is the fast path for feeding one
// string to many sketches: hash once, AddHash everywhere.
func (s *Sketch) AddHash(h uint64) {
	idx := uint32(h >> (64 - s.p))
	// Rank of the first set bit in the remaining 64-p bits, 1-based.
	rest := h<<s.p | 1<<(s.p-1) // guard bit bounds the rank
	rank := uint8(bits.LeadingZeros64(rest)) + 1
	if s.dense {
		s.setDense(idx, rank)
		return
	}
	s.addSparse(idx, rank)
}

// setDense raises register idx to rank if larger, maintaining the rank
// histogram.
func (s *Sketch) setDense(idx uint32, rank uint8) {
	if old := s.regs[idx]; rank > old {
		s.regs[idx] = rank
		s.hist[old]--
		s.hist[rank]++
	}
}

// addSparse records (idx, rank) in the sparse form: an in-place update
// when the index is already tracked, otherwise an append to the
// insertion buffer.
func (s *Sketch) addSparse(idx uint32, rank uint8) {
	packed := idx<<rankBits | uint32(rank)
	if i, ok := s.findSparse(idx); ok {
		if uint32(rank) > s.sparse[i]&rankMask {
			s.sparse[i] = packed // same idx: sort order is unchanged
		}
		return
	}
	for i, e := range s.buf {
		if e>>rankBits == idx {
			if packed > e {
				s.buf[i] = packed
			}
			return
		}
	}
	s.buf = append(s.buf, packed)
	if len(s.buf) >= bufCap {
		s.compact()
	}
}

// findSparse binary-searches the sorted sparse list for a register
// index.
func (s *Sketch) findSparse(idx uint32) (int, bool) {
	lo, hi := 0, len(s.sparse)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.sparse[mid]>>rankBits < idx {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(s.sparse) && s.sparse[lo]>>rankBits == idx
}

// promoteLen is the sparse-entry count at which the sparse list costs as
// much memory as the dense register array (4 bytes/entry vs 2^p bytes).
func (s *Sketch) promoteLen() int { return 1 << s.p / 4 }

// compact folds the insertion buffer into the sorted sparse list with a
// backward in-place merge, deduplicating by register index (max rank
// wins), then promotes to dense once the list outgrows the register
// array's cost. Amortized alloc-free: the sparse slice only grows.
func (s *Sketch) compact() {
	// Packed entries sort by index first, rank second, so after sorting
	// the last entry of an index run carries its max rank.
	slices.Sort(s.buf)
	w := 0
	for i, e := range s.buf {
		if i+1 < len(s.buf) && s.buf[i+1]>>rankBits == e>>rankBits {
			continue
		}
		s.buf[w] = e
		w++
	}
	buf := s.buf[:w]

	n, m := len(s.sparse), len(buf)
	s.sparse = slices.Grow(s.sparse, m)[:n+m]
	// Merge from the ends; duplicate indices shrink the result, leaving
	// a gap at the front that is shifted out afterwards.
	i, j, k := n-1, m-1, n+m-1
	for j >= 0 {
		switch {
		case i < 0 || s.sparse[i]>>rankBits < buf[j]>>rankBits:
			s.sparse[k] = buf[j]
			j--
		case s.sparse[i]>>rankBits == buf[j]>>rankBits:
			s.sparse[k] = max(s.sparse[i], buf[j])
			i--
			j--
		default:
			s.sparse[k] = s.sparse[i]
			i--
		}
		k--
	}
	for ; i >= 0; i-- {
		s.sparse[k] = s.sparse[i]
		k--
	}
	if gap := k + 1; gap > 0 {
		copy(s.sparse, s.sparse[gap:])
		s.sparse = s.sparse[:n+m-gap]
	}
	s.buf = s.buf[:0]
	if len(s.sparse) > s.promoteLen() {
		s.promote()
	}
}

// promote switches to the dense form, replaying the sparse entries into
// freshly cleared registers. The register array and histogram are
// allocated once and reused across Reset.
func (s *Sketch) promote() {
	promotions.Add(1)
	if s.regs == nil {
		s.regs = make([]uint8, 1<<s.p)
		s.hist = make([]uint32, histLen)
	} else {
		clear(s.regs)
		clear(s.hist)
	}
	s.hist[0] = uint32(len(s.regs))
	s.dense = true
	for _, e := range s.sparse {
		s.setDense(e>>rankBits, uint8(e&rankMask))
	}
	for _, e := range s.buf {
		s.setDense(e>>rankBits, uint8(e&rankMask))
	}
	s.sparse = s.sparse[:0]
	s.buf = s.buf[:0]
}

// Estimate returns the estimated number of distinct values added.
// Sparse and dense forms of the same observations produce identical
// estimates: a dense sketch evaluates estimateHist over its rank
// histogram, and a sparse one reads what estimateHist returns for its
// register count from linearCounts. A sparse sketch is not modified
// unless it is past the promotion threshold, where only the entries
// still in its insertion buffer can carry it; it promotes then, as it
// would at its next compaction.
func (s *Sketch) Estimate() float64 {
	if !s.dense {
		if n := len(s.sparse) + len(s.buf); n <= s.promoteLen() {
			return linearCounts(s.p)[n]
		}
		s.promote()
	}
	return estimateHist(s.hist, s.p)
}

// linearTabs[p] is linearCounts(p), built on first use.
var linearTabs [19]atomic.Pointer[[]float64]

// linearCounts returns the estimates of a precision-p sketch with n
// registers set, for every n up to the promotion threshold m/4. Up to
// there the estimate depends on n alone: the harmonic sum is at least
// the zero-register count m-n >= 0.75 m, so raw = alpha m^2 / sum is at
// most 0.97 m, under the 2.5 m cut, and estimateHist takes its
// linear-counting branch m ln(m / (m-n)) — the expression tabulated
// here, on the same operands.
func linearCounts(p uint8) []float64 {
	if t := linearTabs[p].Load(); t != nil {
		return *t
	}
	m := float64(uint64(1) << p)
	tab := make([]float64, 1<<p/4+1)
	for n := range tab {
		tab[n] = m * math.Log(m/float64(uint32(1)<<p-uint32(n)))
	}
	linearTabs[p].Store(&tab) // racing builders store equal tables
	return tab
}

// estimateHist evaluates the HLL estimate from a register rank
// histogram: the harmonic sum collapses to at most 64 terms.
func estimateHist(hist []uint32, p uint8) float64 {
	m := float64(uint64(1) << p)
	var sum float64
	for r := len(hist) - 1; r >= 0; r-- {
		if hist[r] != 0 {
			sum += float64(hist[r]) * math.Ldexp(1, -r)
		}
	}
	zeros := hist[0]
	raw := alphaM(int(m)) * m * m / sum
	// Small-range correction: linear counting while registers are sparse
	// (Heule et al. §4; with a 64-bit hash no large-range correction is
	// needed).
	if raw <= 2.5*m && zeros > 0 {
		return m * math.Log(m/float64(zeros))
	}
	return raw
}

// Count returns the estimate rounded to an integer.
func (s *Sketch) Count() uint64 {
	e := s.Estimate()
	if e < 0 {
		return 0
	}
	return uint64(e + 0.5)
}

// Merge folds other into s (register-wise max) across any combination
// of sparse and dense forms. Both sketches must have the same
// precision. other is read-only.
func (s *Sketch) Merge(other *Sketch) error {
	if s.p != other.p {
		return ErrPrecision
	}
	if other.dense {
		if !s.dense {
			s.promote()
		}
		for i, r := range other.regs {
			s.setDense(uint32(i), r)
		}
		return nil
	}
	// other is sparse; its buffer may duplicate list entries, which the
	// max-rank fold handles either way.
	for _, e := range other.sparse {
		s.addEntry(e)
	}
	for _, e := range other.buf {
		s.addEntry(e)
	}
	return nil
}

// addEntry folds one packed (idx, rank) into whichever form s currently
// has (s may promote mid-merge).
func (s *Sketch) addEntry(e uint32) {
	if s.dense {
		s.setDense(e>>rankBits, uint8(e&rankMask))
	} else {
		s.addSparse(e>>rankBits, uint8(e&rankMask))
	}
}

// Reset clears the sketch back to the (empty) sparse form. O(1): dense
// registers are cleared lazily at the next promotion, so pooled feature
// sets pay nothing per window for sketches that stay sparse.
func (s *Sketch) Reset() {
	s.dense = false
	s.sparse = s.sparse[:0]
	s.buf = s.buf[:0]
}

// Precision returns the sketch's precision parameter p.
func (s *Sketch) Precision() uint8 { return s.p }

// Dense reports whether the sketch has promoted to dense registers.
func (s *Sketch) Dense() bool { return s.dense }

// SizeBytes returns the sketch's current heap footprint (slice
// capacities plus the struct itself) — the per-object memory the
// Observatory accounts per feature.
func (s *Sketch) SizeBytes() int {
	const structSize = 8 + 4*24 // fixed fields plus four slice headers
	return structSize + cap(s.sparse)*4 + cap(s.buf)*4 + cap(s.regs) + cap(s.hist)*4
}

// alphaM is the standard bias-correction constant.
func alphaM(m int) float64 {
	switch m {
	case 16:
		return 0.673
	case 32:
		return 0.697
	case 64:
		return 0.709
	}
	return 0.7213 / (1 + 1.079/float64(m))
}
