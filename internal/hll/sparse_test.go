package hll

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"
)

// forceDense promotes a sketch immediately so tests can pin the form.
func forceDense(s *Sketch) *Sketch {
	s.promote()
	return s
}

// TestHashGolden pins the hash functions to fixed values: the seed is
// part of the on-disk contract (snapshots from different runs and
// processes are merged and averaged), so any change here is a breaking
// format change, not a refactor.
func TestHashGolden(t *testing.T) {
	strings := map[string]uint64{
		"":                         0xefd01f60ba992926,
		"example.com.":             0x846b325e3eb70e8a,
		"ns1.dns-observatory.net.": 0x99df6b6c2bdbdf22,
		"198.51.100.7":             0xa423aaea3afd7152,
	}
	for s, want := range strings {
		if got := HashString(s); got != want {
			t.Errorf("HashString(%q) = %#x, want %#x", s, got, want)
		}
		if got := HashBytes([]byte(s)); got != want {
			t.Errorf("HashBytes(%q) = %#x, want HashString's %#x", s, got, want)
		}
	}
	ints := map[uint64]uint64{
		0:  0x9ca066f1a4ab2eea,
		1:  0xe5fdc025e13eeed5,
		28: 0xefa0ff9d014672d6,
	}
	for v, want := range ints {
		if got := HashUint64(v); got != want {
			t.Errorf("HashUint64(%d) = %#x, want %#x", v, got, want)
		}
	}
}

// TestSeparatelyConstructedSketchesAgree is the cross-run determinism
// contract: two sketches built independently (as two processes would)
// must agree bit-for-bit on the same input.
func TestSeparatelyConstructedSketchesAgree(t *testing.T) {
	build := func() *Sketch {
		s := MustNew(10)
		for i := 0; i < 5000; i++ {
			s.Add(fmt.Sprintf("host%d.example.net.", i%1700))
		}
		return s
	}
	a, b := build(), build()
	if a.Estimate() != b.Estimate() {
		t.Errorf("independent sketches disagree: %v vs %v", a.Estimate(), b.Estimate())
	}
}

// TestSparseDenseIdenticalEstimates feeds the same values to a sketch
// left in its natural form and one promoted to dense up front; the
// estimates must be exactly equal at every cardinality, across the
// promotion boundary, and after Reset and refill.
func TestSparseDenseIdenticalEstimates(t *testing.T) {
	natural, dense := MustNew(10), forceDense(MustNew(10))
	check := func(n int) {
		t.Helper()
		if ne, de := natural.Estimate(), dense.Estimate(); ne != de {
			t.Fatalf("after %d adds: natural (dense=%v) %v != forced-dense %v",
				n, natural.Dense(), ne, de)
		}
	}
	for i := 0; i < 2000; i++ {
		v := fmt.Sprintf("val-%d", i%900)
		natural.Add(v)
		dense.Add(v)
		if i%37 == 0 {
			check(i + 1)
		}
	}
	check(2000)
	if !natural.Dense() {
		t.Fatal("natural sketch never promoted; threshold untested")
	}

	natural.Reset()
	dense.Reset()
	if natural.Dense() {
		t.Error("Reset did not return the sketch to sparse form")
	}
	for i := 0; i < 50; i++ {
		v := fmt.Sprintf("refill-%d", i)
		natural.Add(v)
		dense.Add(v)
	}
	check(50)
	fresh := MustNew(10)
	for i := 0; i < 50; i++ {
		fresh.Add(fmt.Sprintf("refill-%d", i))
	}
	if fresh.Estimate() != natural.Estimate() {
		t.Errorf("recycled sketch %v != fresh sketch %v", natural.Estimate(), fresh.Estimate())
	}
}

// TestSparseDensePropertyQuick is the randomized form of the
// equivalence guarantee: arbitrary interleavings of adds and resets
// keep a natural sketch and a forced-dense twin in exact agreement.
func TestSparseDensePropertyQuick(t *testing.T) {
	f := func(seed int64, ops uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		nat, den := MustNew(8), forceDense(MustNew(8))
		for op := 0; op < int(ops)%40+5; op++ {
			switch rng.Intn(10) {
			case 0: // reset both
				nat.Reset()
				den.Reset()
				den.promote()
			default: // a burst of adds
				for i, n := 0, rng.Intn(120); i < n; i++ {
					v := fmt.Sprintf("v%d", rng.Intn(600))
					nat.Add(v)
					den.Add(v)
				}
			}
			if nat.Estimate() != den.Estimate() {
				t.Logf("seed %d op %d: natural %v dense %v", seed, op, nat.Estimate(), den.Estimate())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSparseMemoryStaysSmall is the point of the representation: a
// tail object seeing a handful of distinct values must not pay for
// dense registers.
func TestSparseMemoryStaysSmall(t *testing.T) {
	s := MustNew(10)
	for i := 0; i < 8; i++ {
		s.Add(fmt.Sprintf("tail-%d", i))
	}
	if s.Dense() {
		t.Fatal("8 distinct values promoted to dense")
	}
	if got := s.SizeBytes(); got > 512 {
		t.Errorf("sparse sketch with 8 values occupies %d bytes", got)
	}
	dense := forceDense(MustNew(10))
	if got := dense.SizeBytes(); got < 1<<10 {
		t.Errorf("dense sketch reports %d bytes, expected at least the register array", got)
	}
}

// TestAddAllocationFree: a sketch allocates at its first promotion and
// never else — nothing for any number of adds while its registers fit
// the array, exactly the register file and the histogram when they no
// longer do, nothing at a later promotion after Reset, nothing dense.
func TestAddAllocationFree(t *testing.T) {
	for _, p := range []uint8{4, 6, 10, 14} {
		s := MustNew(p)
		var vals []uint64 // distinct registers, more than the array holds
		seen := map[uint64]bool{}
		for v := uint64(0); len(vals) < smallCap(p)+8; v++ {
			if idx := HashUint64(v) >> (64 - p); !seen[idx] {
				seen[idx] = true
				vals = append(vals, v)
			}
		}
		small := vals[:smallCap(p)]
		fillSmall := func() {
			for round := 0; round < 3; round++ {
				for _, v := range small {
					s.AddUint64(v)
				}
			}
		}
		if avg := testing.AllocsPerRun(10, func() { s.Reset(); fillSmall() }); avg != 0 || s.Dense() {
			t.Errorf("p=%d: %d registers, added three times over: %v allocs per fill, dense %v", p, len(small), avg, s.Dense())
		}
		// Once only, so counted by hand: AllocsPerRun warms up first.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.AddUint64(vals[len(small)])
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n != 2 || !s.Dense() {
			t.Errorf("p=%d: register %d: %d allocs, dense %v; want the register file and the histogram", p, len(small)+1, n, s.Dense())
		}
		promote := func() {
			s.Reset()
			for _, v := range vals {
				s.AddUint64(v)
			}
		}
		if avg := testing.AllocsPerRun(10, promote); avg != 0 || !s.Dense() {
			t.Errorf("p=%d: a promotion after Reset: %v allocs, dense %v", p, avg, s.Dense())
		}
	}
	dense := forceDense(MustNew(10))
	if avg := testing.AllocsPerRun(1000, func() { dense.AddUint64(12345) }); avg != 0 {
		t.Errorf("dense AddUint64 allocates %v per op", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() { dense.Add("steady.example.com.") }); avg != 0 {
		t.Errorf("dense Add allocates %v per op", avg)
	}
}

// TestSketchFootprintBound: whatever was added, a sketch occupies its
// struct, and once promoted its 2^p registers and the 64-slot histogram.
func TestSketchFootprintBound(t *testing.T) {
	for _, p := range []uint8{4, 7, 10, 14} {
		s := MustNew(p)
		bound := int(unsafe.Sizeof(*s)) + 1<<p + 4*histLen
		for round := 0; round < 3; round++ {
			for i := uint64(0); i < 5000; i++ {
				s.AddUint64(i * uint64(round+1))
				if i < 40 || i%500 == 0 {
					if got := s.SizeBytes(); got > bound || round == 0 && !s.Dense() && got != int(unsafe.Sizeof(*s)) {
						t.Fatalf("p=%d round %d after %d adds: %d B (dense %v), bound %d", p, round, i+1, got, s.Dense(), bound)
					}
				}
			}
			s.Reset()
		}
		if got := s.SizeBytes(); got != bound {
			t.Errorf("p=%d: a sketch that has been dense occupies %d B, want %d", p, got, bound)
		}
	}
}

// TestSmallFormMatchesModel hammers the array — in-place rank raises,
// new slots, the promotion and the dense registers after it — against a
// map-based model.
func TestSmallFormMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, universe := range []int{smallLen, 900} { // registers that fit the array; registers that do not
		s := MustNew(12)
		model := map[uint32]uint8{}
		requireModel := func(i int) {
			t.Helper()
			got := map[uint32]uint8{}
			for _, e := range s.small[:s.n] {
				if _, dup := got[e>>rankBits]; dup {
					t.Fatalf("after %d adds: register %d is held twice", i, e>>rankBits)
				}
				got[e>>rankBits] = uint8(e & rankMask)
			}
			for idx, r := range s.regs {
				if s.dense && r != 0 {
					got[uint32(idx)] = r
				}
			}
			if len(got) != len(model) {
				t.Fatalf("after %d adds: %d registers held, model %d", i, len(got), len(model))
			}
			for idx, r := range model {
				if got[idx] != r {
					t.Fatalf("after %d adds: register %d at rank %d, model %d", i, idx, got[idx], r)
				}
			}
			if s.Dense() != (len(model) > smallLen) {
				t.Fatalf("after %d adds: dense %v with %d registers", i, s.Dense(), len(model))
			}
		}
		for i := 0; i < 5000; i++ {
			idx := uint32(rng.Intn(universe))
			rank := uint8(rng.Intn(50) + 1)
			if s.dense {
				s.setDense(idx, rank)
			} else {
				s.addSmall(idx<<rankBits | uint32(rank))
			}
			if rank > model[idx] {
				model[idx] = rank
			}
			if i < 200 || i%97 == 0 {
				requireModel(i + 1)
			}
		}
		requireModel(5000)
	}
}
