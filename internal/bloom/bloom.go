package bloom

import (
	"hash/maphash"
	"math"
	"math/bits"
)

// Filter is a Bloom filter. Create one with New; the zero value is not
// usable. Filter is not safe for concurrent use.
type Filter struct {
	// bits is allocated by the first insertion: a filter nothing was ever
	// added to — the admitter of a cache that never fills — costs its
	// header, not its bit array.
	bits  []uint64
	mask  uint64 // bit count - 1; the bit count is a power of two
	k     int
	seed  maphash.Seed
	det   bool   // deterministic hashing (NewSeeded)
	dseed uint64 // seed for the deterministic hash
	count uint64 // insertions, for saturation tracking
}

// New returns a filter sized for n expected elements at the given
// false-positive rate (0 < fp < 1). The bit array is rounded up to a
// power of two so hashing can mask instead of mod.
func New(n int, fp float64) *Filter {
	f := sized(n, fp)
	f.seed = maphash.MakeSeed()
	return f
}

// NewSeeded is New with a caller-supplied deterministic hash seed: two
// filters built with identical parameters map identical keys to
// identical bit patterns, in this process or any other. The detection
// layer depends on this — its serial and sharded deployments must reach
// byte-identical admission and seen-set state, which maphash's
// per-filter random seed would break probabilistically.
func NewSeeded(n int, fp float64, seed uint64) *Filter {
	f := sized(n, fp)
	f.det = true
	f.dseed = seed
	return f
}

// sized allocates a filter for n expected elements at false-positive
// rate fp, with optimal m = -n ln(fp) / (ln 2)^2 and k = m/n ln 2.
func sized(n int, fp float64) *Filter {
	if n < 1 {
		n = 1
	}
	if fp <= 0 || fp >= 1 {
		fp = 0.01
	}
	m := int(math.Ceil(-float64(n) * math.Log(fp) / (math.Ln2 * math.Ln2)))
	size := uint64(64)
	for size < uint64(m) {
		size <<= 1
	}
	k := int(math.Round(float64(size) / float64(n) * math.Ln2))
	// The power-of-two rounding inflates m/n and with it the m/n-optimal
	// k, but ceil(log2(1/fp)) hash functions already achieve the target
	// rate at the optimal size — more probes past that only cost time.
	if kfp := int(math.Ceil(-math.Log2(fp))); k > kfp {
		k = kfp
	}
	if k < 1 {
		k = 1
	}
	if k > 16 {
		k = 16
	}
	return &Filter{mask: size - 1, k: k}
}

// hash2 derives two independent 64-bit hashes of s; the k index
// functions are Kirsch–Mitzenmacher combinations h1 + i*h2.
func (f *Filter) hash2(s string) (uint64, uint64) {
	if f.det {
		h := f.dseed ^ 14695981039346656037
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
		return f.spread(mix64(h))
	}
	return f.spread(maphash.String(f.seed, s))
}

// hash2Bytes is hash2 over a byte slice; both hash functions guarantee
// identical output for the string and byte views of one key, so
// Contains(string(b)) == ContainsBytes(b) always holds.
func (f *Filter) hash2Bytes(b []byte) (uint64, uint64) {
	if f.det {
		h := f.dseed ^ 14695981039346656037
		for _, c := range b {
			h ^= uint64(c)
			h *= 1099511628211
		}
		return f.spread(mix64(h))
	}
	return f.spread(maphash.Bytes(f.seed, b))
}

// mix64 is the SplitMix64 finalizer: FNV-1a concentrates key entropy in
// the low bits, and the k index functions need it spread across all 64.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

func (f *Filter) spread(h uint64) (uint64, uint64) {
	h2 := h>>33 | h<<31
	h2 = h2*0x9e3779b97f4a7c15 + 1 // odd multiplier keeps h2 odd-ish spread
	return h, h2 | 1
}

// Sum64 returns the deterministic 64-bit digest of s, for callers that
// probe several identically-seeded filters with one key: compute the
// digest once and reuse it via AddHash/ContainsHash. Only seeded
// filters have a stable digest; Sum64 panics on a random-seeded one.
func (f *Filter) Sum64(s string) uint64 {
	if !f.det {
		panic("bloom: Sum64 on a random-seeded filter")
	}
	h := f.dseed ^ 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return mix64(h)
}

// Sum64Bytes is Sum64 for a byte-slice view; the digests agree.
func (f *Filter) Sum64Bytes(b []byte) uint64 {
	if !f.det {
		panic("bloom: Sum64Bytes on a random-seeded filter")
	}
	h := f.dseed ^ 14695981039346656037
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return mix64(h)
}

// AddHash inserts a key by its Sum64 digest. Valid only across filters
// sharing the seed and sizing of the filter that produced the digest.
func (f *Filter) AddHash(h uint64) {
	h1, h2 := f.spread(h)
	f.set(h1, h2)
}

// ContainsHash is Contains for a Sum64 digest.
func (f *Filter) ContainsHash(h uint64) bool {
	h1, h2 := f.spread(h)
	return f.test(h1, h2)
}

// Add inserts s.
func (f *Filter) Add(s string) {
	h1, h2 := f.hash2(s)
	f.set(h1, h2)
}

// AddBytes inserts b without converting it to a string.
func (f *Filter) AddBytes(b []byte) {
	h1, h2 := f.hash2Bytes(b)
	f.set(h1, h2)
}

func (f *Filter) set(h1, h2 uint64) {
	if f.bits == nil {
		f.bits = make([]uint64, (f.mask+1)/64)
	}
	for i := 0; i < f.k; i++ {
		idx := (h1 + uint64(i)*h2) & f.mask
		f.bits[idx/64] |= 1 << (idx % 64)
	}
	f.count++
}

// Contains reports whether s may have been added. False positives occur
// at roughly the configured rate; false negatives never.
func (f *Filter) Contains(s string) bool {
	h1, h2 := f.hash2(s)
	return f.test(h1, h2)
}

// ContainsBytes is Contains for a byte-slice view of the key.
func (f *Filter) ContainsBytes(b []byte) bool {
	h1, h2 := f.hash2Bytes(b)
	return f.test(h1, h2)
}

func (f *Filter) test(h1, h2 uint64) bool {
	if f.count == 0 {
		return false // empty, and maybe without a bit array yet
	}
	for i := 0; i < f.k; i++ {
		idx := (h1 + uint64(i)*h2) & f.mask
		if f.bits[idx/64]&(1<<(idx%64)) == 0 {
			return false
		}
	}
	return true
}

// Reset clears the filter. The Observatory resets its admission filter
// periodically so that the "seen once before" signal stays fresh.
func (f *Filter) Reset() {
	if f.count != 0 {
		clear(f.bits)
		f.count = 0
	}
}

// Count returns the number of Add calls since the last Reset.
func (f *Filter) Count() uint64 { return f.count }

// FillRatio returns the fraction of set bits, a saturation measure.
func (f *Filter) FillRatio() float64 {
	var set int
	for _, w := range f.bits {
		set += bits.OnesCount64(w)
	}
	return float64(set) / float64(f.mask+1)
}
