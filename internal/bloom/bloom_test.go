package bloom

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// add and has are the two halves of Admit, for either view of a key.
func add[K ~string | ~[]byte](f *Filter, key K) { f.AddHash(Sum64(f, key)) }

func has[K ~string | ~[]byte](f *Filter, key K) bool { return f.ContainsHash(Sum64(f, key)) }

func TestNoFalseNegatives(t *testing.T) {
	f := New(1000, 0.01, 0)
	for i := 0; i < 1000; i++ {
		add(f, fmt.Sprintf("key-%d", i))
	}
	for i := 0; i < 1000; i++ {
		if !has(f, fmt.Sprintf("key-%d", i)) {
			t.Fatalf("false negative for key-%d", i)
		}
	}
}

func TestFalsePositiveRate(t *testing.T) {
	f := New(10000, 0.01, 0)
	for i := 0; i < 10000; i++ {
		add(f, fmt.Sprintf("in-%d", i))
	}
	var fp int
	const probes = 20000
	for i := 0; i < probes; i++ {
		if has(f, fmt.Sprintf("out-%d", i)) {
			fp++
		}
	}
	rate := float64(fp) / probes
	// Allow generous slack over the configured 1 %.
	if rate > 0.05 {
		t.Errorf("false positive rate %.4f too high", rate)
	}
}

func TestReset(t *testing.T) {
	f := New(100, 0.01, 0)
	add(f, "alpha")
	if !has(f, "alpha") {
		t.Fatal("missing before reset")
	}
	if f.Count() != 1 {
		t.Errorf("count = %d", f.Count())
	}
	f.Reset()
	if has(f, "alpha") {
		t.Error("present after reset")
	}
	if f.Count() != 0 || f.FillRatio() != 0 {
		t.Errorf("count=%d fill=%f after reset", f.Count(), f.FillRatio())
	}
}

// TestBitsAllocatedByFirstAdd: a filter nothing was added to answers
// like an empty one without holding its bit array.
func TestBitsAllocatedByFirstAdd(t *testing.T) {
	f := New(1<<20, 0.01, 0)
	if has(f, "alpha") || has(f, []byte("alpha")) || f.FillRatio() != 0 {
		t.Error("a fresh filter is not empty")
	}
	f.Reset()
	if f.bits != nil {
		t.Fatal("reading or resetting a fresh filter allocated its bits")
	}
	add(f, []byte("alpha"))
	if len(f.bits) != 1<<18 || !has(f, "alpha") || has(f, "beta") {
		t.Errorf("after the first add: %d words, alpha %v, beta %v", len(f.bits), has(f, "alpha"), has(f, "beta"))
	}
}

func TestFillRatioGrows(t *testing.T) {
	f := New(1000, 0.01, 0)
	if f.FillRatio() != 0 {
		t.Error("fresh filter not empty")
	}
	for i := 0; i < 500; i++ {
		add(f, fmt.Sprintf("k%d", i))
	}
	if f.FillRatio() <= 0 || f.FillRatio() >= 1 {
		t.Errorf("fill ratio %f", f.FillRatio())
	}
}

func TestDegenerateParams(t *testing.T) {
	for _, f := range []*Filter{New(0, 0.01, 0), New(10, 0, 0), New(10, 1.5, 0), New(-5, -1, 0)} {
		add(f, "x")
		if !has(f, "x") {
			t.Error("degenerate filter lost an element")
		}
	}
}

func TestAddedAlwaysContained(t *testing.T) {
	f := New(500, 0.001, 0)
	err := quick.Check(func(s string) bool {
		add(f, s)
		return has(f, s)
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}

func TestSeededDeterministic(t *testing.T) {
	// Two seeded filters with the same parameters must agree bit for bit:
	// this is what makes detection snapshots reproducible across runs and
	// across the serial/sharded engines.
	a := New(1024, 0.01, 42)
	b := New(1024, 0.01, 42)
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("key-%d.example.com.", i)
		add(a, key)
		add(b, []byte(key)) // the string and the byte view share the hash
	}
	if a.Count() != b.Count() {
		t.Fatalf("counts diverged: %d vs %d", a.Count(), b.Count())
	}
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("key-%d.example.com.", i)
		if has(a, key) != has(b, key) {
			t.Fatalf("membership diverged on %q", key)
		}
		if has(a, key) != has(a, []byte(key)) {
			t.Fatalf("string/bytes view diverged on %q", key)
		}
	}
}

func TestSeededSeedsDiffer(t *testing.T) {
	// Different seeds give different hash functions: false positives of
	// one filter should not systematically repeat in the other.
	a := New(256, 0.05, 1)
	b := New(256, 0.05, 2)
	for i := 0; i < 256; i++ {
		add(a, fmt.Sprintf("in-%d", i))
		add(b, fmt.Sprintf("in-%d", i))
	}
	shared := 0
	for i := 0; i < 5000; i++ {
		key := fmt.Sprintf("out-%d", i)
		if has(a, key) && has(b, key) {
			shared++
		}
	}
	// Independent ~5% FP rates should intersect near 0.25%; 2% is far
	// outside any plausible run of a correct implementation.
	if shared > 100 {
		t.Fatalf("%d/5000 shared false positives: seeds not independent", shared)
	}
}

func TestSeededNoFalseNegatives(t *testing.T) {
	f := New(1000, 0.01, 7)
	for i := 0; i < 1000; i++ {
		add(f, fmt.Sprintf("item-%d", i))
	}
	for i := 0; i < 1000; i++ {
		if !has(f, fmt.Sprintf("item-%d", i)) {
			t.Fatalf("false negative on item-%d", i)
		}
	}
}

// parentFilter is the seeded filter as it was before ISSUE 24, frozen:
// NewSeeded's sizing, the FNV-1a loop written out per view, and the
// separate Contains and Add a cache called back to back.
type parentFilter struct {
	bits  []uint64
	mask  uint64
	k     int
	dseed uint64
	count uint64
}

func newParentFilter(n int, fp float64, seed uint64) *parentFilter {
	m := int(math.Ceil(-float64(n) * math.Log(fp) / (math.Ln2 * math.Ln2)))
	size := uint64(64)
	for size < uint64(m) {
		size <<= 1
	}
	k := int(math.Round(float64(size) / float64(n) * math.Ln2))
	if kfp := int(math.Ceil(-math.Log2(fp))); k > kfp {
		k = kfp
	}
	k = min(max(k, 1), 16)
	return &parentFilter{mask: size - 1, k: k, dseed: seed}
}

func (f *parentFilter) hash2(s string) (uint64, uint64) {
	h := f.dseed ^ 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return parentSpread(h)
}

// parentSpread is the parent's spread(mix64(h)).
func parentSpread(h uint64) (uint64, uint64) {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	h2 := h>>33 | h<<31
	h2 = h2*0x9e3779b97f4a7c15 + 1
	return h, h2 | 1
}

func (f *parentFilter) hash2Bytes(b []byte) (uint64, uint64) {
	h := f.dseed ^ 14695981039346656037
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return parentSpread(h)
}

func (f *parentFilter) set(h1, h2 uint64) {
	if f.bits == nil {
		f.bits = make([]uint64, (f.mask+1)/64)
	}
	for i := 0; i < f.k; i++ {
		idx := (h1 + uint64(i)*h2) & f.mask
		f.bits[idx/64] |= 1 << (idx % 64)
	}
	f.count++
}

func (f *parentFilter) test(h1, h2 uint64) bool {
	if f.count == 0 {
		return false
	}
	for i := 0; i < f.k; i++ {
		idx := (h1 + uint64(i)*h2) & f.mask
		if f.bits[idx/64]&(1<<(idx%64)) == 0 {
			return false
		}
	}
	return true
}

func (f *parentFilter) Add(s string)                { f.set(f.hash2(s)) }
func (f *parentFilter) Contains(s string) bool      { return f.test(f.hash2(s)) }
func (f *parentFilter) AddBytes(b []byte)           { f.set(f.hash2Bytes(b)) }
func (f *parentFilter) ContainsBytes(b []byte) bool { return f.test(f.hash2Bytes(b)) }

func (f *parentFilter) Reset() {
	if f.count != 0 {
		clear(f.bits)
		f.count = 0
	}
}

// TestAdmitMatchesContainsThenAdd: one test-and-set is the two calls the
// caches made before it — the same answer, the same bits, the same
// count — for either view of a key, over a filter small enough that
// false positives decide some of the answers, resets included.
func TestAdmitMatchesContainsThenAdd(t *testing.T) {
	for _, seed := range []uint64{0, 19, 0xd15ea5e0c0ffee03} {
		f, ref := New(300, 0.05, seed), newParentFilter(300, 0.05, seed)
		if f.mask != ref.mask || f.k != ref.k {
			t.Fatalf("sized to %d bits, %d probes; the parent's %d, %d", f.mask+1, f.k, ref.mask+1, ref.k)
		}
		rng := rand.New(rand.NewSource(int64(seed) + 1))
		falsePositives, resets := 0, 0
		seen := map[string]bool{}
		for op := 0; op < 20000; op++ {
			key := fmt.Sprintf("k%d.example.", rng.Intn(2000))
			var got, want bool
			switch rng.Intn(400) {
			case 0:
				f.Reset()
				ref.Reset()
				clear(seen)
				resets++
				continue
			case 1, 2, 3: // an empty key, a long one
				key = strings.Repeat(key, rng.Intn(2)*9)
				fallthrough
			default:
				if op%2 == 0 {
					got = Admit(f, key)
					if want = ref.Contains(key); !want {
						ref.Add(key)
					}
				} else {
					got = Admit(f, []byte(key))
					if want = ref.ContainsBytes([]byte(key)); !want {
						ref.AddBytes([]byte(key))
					}
				}
			}
			if got != want {
				t.Fatalf("seed %d op %d: Admit(%q) = %v, Contains-then-Add %v", seed, op, key, got, want)
			}
			if got && !seen[key] {
				falsePositives++
			}
			seen[key] = true
			if f.Count() != ref.count {
				t.Fatalf("seed %d op %d: count %d, the parent's %d", seed, op, f.Count(), ref.count)
			}
		}
		if !slices.Equal(f.bits, ref.bits) {
			t.Fatalf("seed %d: bit arrays differ", seed)
		}
		if falsePositives == 0 || resets == 0 {
			t.Fatalf("seed %d: %d false positives, %d resets: the sequence decides nothing", seed, falsePositives, resets)
		}
	}
}
