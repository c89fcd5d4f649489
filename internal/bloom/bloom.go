package bloom

import (
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
	seed  uint64 // folded into every digest (Sum64)
	count uint64 // insertions, for saturation tracking
}

// New returns a filter sized for n expected elements at the given
// false-positive rate (0 < fp < 1), with the optimal m = -n ln(fp) /
// (ln 2)^2 bits rounded up to a power of two so hashing can mask instead
// of mod. Two filters built with identical parameters map identical keys
// to identical bit patterns, in this process or any other; filters with
// different seeds hash independently, so they do not share their false
// positives.
func New(n int, fp float64, seed uint64) *Filter {
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
	return &Filter{mask: size - 1, k: k, seed: seed}
}

// Sum64 returns the 64-bit digest the filter derives its bit positions
// from: seeded FNV-1a over the key's bytes, finished by mix64. It is the
// one place a key is hashed, for either view of it, so the string and
// the byte view of one key always agree. A caller that probes several
// filters of one seed and sizing with one key computes the digest once
// and reuses it through AddHash and ContainsHash.
func Sum64[K ~string | ~[]byte](f *Filter, key K) uint64 {
	h := f.seed ^ 14695981039346656037
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return mix64(h)
}

// Admit is the filter as an admission guard, one hash per key: it
// reports whether key may have been added before, and adds it if not.
// False positives occur at roughly the configured rate; false negatives
// never.
func Admit[K ~string | ~[]byte](f *Filter, key K) bool {
	h1, h2 := spread(Sum64(f, key))
	if f.test(h1, h2) {
		return true
	}
	f.set(h1, h2)
	return false
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

// spread derives the two hashes the k index functions combine
// (Kirsch–Mitzenmacher: h1 + i*h2) from one digest.
func spread(h uint64) (uint64, uint64) {
	h2 := h>>33 | h<<31
	h2 = h2*0x9e3779b97f4a7c15 + 1 // odd multiplier keeps h2 odd-ish spread
	return h, h2 | 1
}

// AddHash inserts a key by its Sum64 digest. Valid only across filters
// sharing the seed and sizing of the filter that produced the digest.
func (f *Filter) AddHash(h uint64) { f.set(spread(h)) }

// ContainsHash reports whether a key of digest h may have been added.
func (f *Filter) ContainsHash(h uint64) bool { return f.test(spread(h)) }

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

// Count returns the number of insertions since the last Reset.
func (f *Filter) Count() uint64 { return f.count }

// FillRatio returns the fraction of set bits, a saturation measure.
func (f *Filter) FillRatio() float64 {
	var set int
	for _, w := range f.bits {
		set += bits.OnesCount64(w)
	}
	return float64(set) / float64(f.mask+1)
}
