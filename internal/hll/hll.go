package hll

import (
	"errors"
	"math"
	"math/bits"
	"sync/atomic"
	"unsafe"
)

// promotions counts small→dense promotions across every sketch in the
// process. Sketches are single-owner, but distinct sketches promote
// concurrently on different engine workers, hence the atomic.
var promotions atomic.Uint64

// Promotions returns the process-wide count of small→dense promotions
// — the signal that objects are outgrowing the in-struct array
// (observatory.InstrumentPlatform exposes it as a metric).
func Promotions() uint64 { return promotions.Load() }

// Sketch is a HyperLogLog counter. Create one with New. Sketch is not
// safe for concurrent use.
type Sketch struct {
	p     uint8
	dense bool
	// seen says last is the hash of the previous add since Init or Reset.
	// Adding is idempotent, so an add that repeats it changes nothing and
	// is skipped before any register is looked at.
	seen bool
	// Small form: the first n slots hold packed idx<<rankBits|rank entries
	// of distinct register indices (max rank wins), in arrival order. The
	// array lives in the struct, so a small sketch owns no heap at all.
	n     uint8
	last  uint64
	small [smallLen]uint32

	// Dense form: 2^p registers plus the incrementally-maintained rank
	// histogram (hist[r] = number of registers holding r; hist[0] is the
	// zero-register count), so Estimate is O(64) instead of O(2^p).
	// Allocated at first promotion and kept across Reset.
	regs []uint8
	hist []uint32
}

const (
	// rankBits packs the rank into the low bits of a small-form entry; the
	// register index occupies the bits above (p <= 18 fits, and
	// rank <= 65-p <= 61 < 64).
	rankBits = 6
	rankMask = 1<<rankBits - 1
	// histLen covers every possible rank value (1..61) plus slot 0 for
	// empty registers.
	histLen = 64
	// smallLen is how many distinct registers a sketch holds in its array
	// before it promotes to the register file. A constant, not an option:
	// DESIGN.md ("Fold kernel") has the sweep.
	smallLen = 32
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

// HashBytes is HashString(string(b)) without the string: for text that
// is formatted into a scratch buffer only to be hashed.
func HashBytes(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
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
	if h == s.last && s.seen {
		return
	}
	s.add(h)
}

// add is AddHash past the repeat check.
func (s *Sketch) add(h uint64) {
	s.last, s.seen = h, true
	idx := uint32(h >> (64 - s.p))
	// Rank of the first set bit in the remaining 64-p bits, 1-based.
	rest := h<<s.p | 1<<(s.p-1) // guard bit bounds the rank
	rank := uint8(bits.LeadingZeros64(rest)) + 1
	if s.dense {
		s.setDense(idx, rank)
		return
	}
	s.addSmall(idx<<rankBits | uint32(rank))
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

// smallCap is how many registers the small form holds at precision p:
// smallLen, or a quarter of the registers where that is fewer, which is
// as far as Estimate's table is exact (linearCounts).
func smallCap(p uint8) int { return min(smallLen, 1<<p/4) }

// addSmall folds one packed (idx, rank) into the small form: an in-place
// update when the register is already held, a new slot otherwise, and
// the register file once the slots are used up.
func (s *Sketch) addSmall(packed uint32) {
	for i, e := range s.small[:s.n] {
		if (e^packed)>>rankBits == 0 {
			if packed > e {
				s.small[i] = packed
			}
			return
		}
	}
	if int(s.n) < smallCap(s.p) {
		s.small[s.n] = packed
		s.n++
		return
	}
	s.promote()
	s.setDense(packed>>rankBits, uint8(packed&rankMask))
}

// promote switches to the dense form, replaying the small form into
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
	for _, e := range s.small[:s.n] {
		s.setDense(e>>rankBits, uint8(e&rankMask))
	}
	s.n = 0
}

// Estimate returns the estimated number of distinct values added. It
// does not modify the sketch. Small and dense forms of the same
// observations produce identical estimates: a dense sketch evaluates
// estimateHist over its rank histogram, and a small one reads what
// estimateHist returns for its register count from linearCounts.
func (s *Sketch) Estimate() float64 {
	if !s.dense {
		return linearCounts(s.p)[s.n]
	}
	return estimateHist(s.hist, s.p)
}

// linearTabs[p] is linearCounts(p), built on first use.
var linearTabs [19]atomic.Pointer[[]float64]

// linearCounts returns the estimates of a precision-p sketch with n
// registers set, for every n the small form can hold (smallCap, never
// more than m/4). Up to m/4 the estimate depends on n alone: the
// harmonic sum is at least the zero-register count m-n >= 0.75 m, so
// raw = alpha m^2 / sum is at most 0.97 m, under the 2.5 m cut, and
// estimateHist takes its linear-counting branch m ln(m / (m-n)) — the
// expression tabulated here, on the same operands.
func linearCounts(p uint8) []float64 {
	if t := linearTabs[p].Load(); t != nil {
		return *t
	}
	m := float64(uint64(1) << p)
	tab := make([]float64, smallCap(p)+1)
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

// Reset clears the sketch back to the (empty) small form. O(1): dense
// registers are cleared lazily at the next promotion, so pooled feature
// sets pay nothing per window for sketches that stay small.
func (s *Sketch) Reset() {
	s.dense, s.seen, s.n = false, false, 0
}

// Precision returns the sketch's precision parameter p.
func (s *Sketch) Precision() uint8 { return s.p }

// Dense reports whether the sketch has promoted to dense registers.
func (s *Sketch) Dense() bool { return s.dense }

// SizeBytes returns the sketch's current footprint (the struct itself,
// small-form array included, plus the register file and histogram once
// promoted) — the per-object memory the Observatory accounts per
// feature.
func (s *Sketch) SizeBytes() int {
	return int(unsafe.Sizeof(*s)) + cap(s.regs) + cap(s.hist)*4
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
