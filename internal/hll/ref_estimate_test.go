package hll

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"testing"
)

// refSketch is the sketch as it was before ISSUE 18, frozen as the
// reference for the table estimate and (ISSUE 20) for the in-struct
// small form that replaced its lists: a sorted, deduplicated list of
// packed registers plus a 32-entry insertion buffer, promoted to dense
// registers past m/4 entries. Its Estimate folds the buffer into the
// list, promotes past the threshold, and otherwise rebuilds a rank
// histogram for refEstimateHist.
type refSketch struct {
	p      uint8
	dense  bool
	sparse []uint32
	buf    []uint32
	regs   []uint8
	hist   []uint32
}

func (s *refSketch) addHash(h uint64) {
	idx := uint32(h >> (64 - s.p))
	rest := h<<s.p | 1<<(s.p-1)
	rank := uint8(bits.LeadingZeros64(rest)) + 1
	if s.dense {
		s.setDense(idx, rank)
		return
	}
	s.addSparse(idx, rank)
}

func (s *refSketch) setDense(idx uint32, rank uint8) {
	if old := s.regs[idx]; rank > old {
		s.regs[idx] = rank
		s.hist[old]--
		s.hist[rank]++
	}
}

func (s *refSketch) addSparse(idx uint32, rank uint8) {
	packed := idx<<rankBits | uint32(rank)
	lo, hi := 0, len(s.sparse)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.sparse[mid]>>rankBits < idx {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.sparse) && s.sparse[lo]>>rankBits == idx {
		if uint32(rank) > s.sparse[lo]&rankMask {
			s.sparse[lo] = packed
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
	if len(s.buf) >= refBufCap {
		s.compact()
	}
}

// refBufCap bounds the reference's insertion buffer.
const refBufCap = 32

func (s *refSketch) compact() {
	if len(s.buf) == 0 {
		s.maybePromote()
		return
	}
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
	s.maybePromote()
}

func (s *refSketch) maybePromote() {
	if len(s.sparse) > 1<<s.p/4 {
		s.promote()
	}
}

func (s *refSketch) promote() {
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

func (s *refSketch) estimate() float64 {
	if !s.dense {
		s.compact()
	}
	if s.dense {
		return refEstimateHist(s.hist, s.p)
	}
	var hist [histLen]uint32
	for _, e := range s.sparse {
		hist[e&rankMask]++
	}
	hist[0] = uint32(1)<<s.p - uint32(len(s.sparse))
	return refEstimateHist(hist[:], s.p)
}

func refEstimateHist(hist []uint32, p uint8) float64 {
	m := float64(uint64(1) << p)
	var sum float64
	for r := len(hist) - 1; r >= 0; r-- {
		if hist[r] != 0 {
			sum += float64(hist[r]) * math.Ldexp(1, -r)
		}
	}
	zeros := hist[0]
	raw := alphaM(int(m)) * m * m / sum
	if raw <= 2.5*m && zeros > 0 {
		return m * math.Log(m/float64(zeros))
	}
	return raw
}

func (s *refSketch) reset() {
	s.dense = false
	s.sparse = s.sparse[:0]
	s.buf = s.buf[:0]
}

// TestSparseEstimateTable: at every precision, for every register count
// the small form can hold, the table entry is what the frozen histogram
// path computes — whatever the ranks, which are drawn here from the
// whole range a register can take.
func TestSparseEstimateTable(t *testing.T) {
	for p := uint8(4); p <= 18; p++ {
		tab := linearCounts(p)
		if want := min(smallLen, 1<<p/4) + 1; len(tab) != want {
			t.Fatalf("p=%d: table holds %d entries, want %d", p, len(tab), want)
		}
		var hist [histLen]uint32
		x := uint64(p)
		for n := range tab {
			hist[0] = uint32(1)<<p - uint32(n)
			want := refEstimateHist(hist[:], p)
			if math.Float64bits(tab[n]) != math.Float64bits(want) {
				t.Fatalf("p=%d n=%d: table says %v, the histogram path %v", p, n, tab[n], want)
			}
			x = mix64(x + 1)
			hist[1+x%uint64(65-p)]++ // the next register, at a rank in [1, 65-p]
		}
	}
}

// TestEstimateDoesNotMutateSparse: an Estimate reads the register count
// and nothing else. The sketch holds what it held, in the same slots,
// and grows afterwards — through its promotion — as a twin that was
// never estimated does.
func TestEstimateDoesNotMutateSparse(t *testing.T) {
	s, twin := MustNew(10), MustNew(10)
	next := uint64(0)
	for ; s.n < 20; next++ {
		s.AddUint64(next)
		twin.AddUint64(next)
	}
	held, size := *s, s.SizeBytes()
	var est float64
	if avg := testing.AllocsPerRun(100, func() { est = s.Estimate() }); avg != 0 {
		t.Errorf("small-form Estimate allocates %v per call", avg)
	}
	if s.n != held.n || s.small != held.small || s.last != held.last || s.SizeBytes() != size || s.Dense() {
		t.Errorf("Estimate changed the sketch: %d -> %d registers, %d -> %d B, dense %v",
			held.n, s.n, size, s.SizeBytes(), s.Dense())
	}
	ref := &refSketch{p: 10}
	for i := uint64(0); i < next; i++ {
		ref.addHash(HashUint64(i))
	}
	if want := ref.estimate(); est != want {
		t.Errorf("estimate %v, the compacting reference's %v", est, want)
	}
	for ; next < 400; next++ {
		s.AddUint64(next)
		twin.AddUint64(next)
		ref.addHash(HashUint64(next))
		if s.n != twin.n || s.small != twin.small || s.Dense() != twin.Dense() || !slices.Equal(s.regs, twin.regs) {
			t.Fatalf("after %d adds the estimated sketch and its twin differ", next+1)
		}
		if got, want := s.Estimate(), ref.estimate(); got != want {
			t.Fatalf("after %d adds: estimate %v, reference %v", next+1, got, want)
		}
	}
	if !s.Dense() {
		t.Fatal("400 values at p=10 did not promote: the promoted form went untested")
	}
}

// FuzzEstimateMatchesReference drives a sketch and the frozen one
// through the same adds (by hash and by AddUint64, single and in runs of
// one repeated hash), resets and estimates. Every estimate must agree
// bit for bit, whichever form either is in — the sketch promotes at its
// 33rd register, the reference past m/4 of them — and the dense flag
// must be what the register count says: set once the sketch has held
// more registers than its array has slots, which from m/4 registers on
// is where the reference has it too.
func FuzzEstimateMatchesReference(f *testing.F) {
	seed := func(p uint8, ops ...uint64) []byte {
		b := []byte{p}
		for _, op := range ops {
			b = binary.LittleEndian.AppendUint64(b, op)
		}
		return b
	}
	var many []uint64
	for i := uint64(0); i < 700; i++ {
		many = append(many, mix64(i)|7) // an add
		if i%50 == 49 {
			many = append(many, 3) // an estimate
		}
	}
	f.Add(seed(0, 1|7, 2|7, 3, 9|7, 3))
	f.Add(seed(6, many...))
	f.Add(seed(1, many[:200]...))
	f.Add(seed(0, append(many[:20:20], 1, 2, 3, 0, 3)...))
	// The precisions of ISSUE 20's matrix (p = 4 + first byte), both
	// sketches crossing the array's threshold by 40 adds each.
	var cross []uint64
	for i := uint64(0); i < 40; i++ {
		cross = append(cross, mix64(i)&^7|5, mix64(i+100)&^7|6) // an add to b, an AddUint64 to a
		if i%8 == 7 {
			cross = append(cross, 4, 1, 3, 3)
		}
	}
	for _, p := range []uint8{0, 2, 3, 6, 10, 14} {
		f.Add(seed(p, cross...))
	}
	// A repeated hash is skipped only while it is the last one handed in:
	// not across a Reset.
	f.Add(seed(6, 15, 15, 3, 0, 3, 15, 3, 23, 15, 15, 3))
	f.Add(seed(6, append(append([]uint64{15, 3}, cross...), 0, 1, 15, 3, 0, 15, 3)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		p := 4 + data[0]%15
		a, b := MustNew(p), MustNew(p)
		ra, rb := &refSketch{p: p}, &refSketch{p: p}
		check := func(what string, s *Sketch, r *refSketch) {
			t.Helper()
			got, want := s.Estimate(), r.estimate()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: estimate %v, reference %v", what, got, want)
			}
			// The reference has just folded its buffer: a sparse one's
			// list is its register count.
			if wantDense := r.dense || len(r.sparse) > smallCap(p); s.Dense() != wantDense {
				t.Fatalf("%s: dense %v, want %v (reference dense %v with %d sparse registers)",
					what, s.Dense(), wantDense, r.dense, len(r.sparse))
			}
		}
		for data = data[1:]; len(data) >= 8; data = data[8:] {
			op := binary.LittleEndian.Uint64(data)
			switch op & 7 {
			case 0:
				a.Reset()
				ra.reset()
			case 2:
				b.Reset()
				rb.reset()
			case 3:
				check("a", a, ra)
			case 4:
				check("b", b, rb)
			case 5:
				b.AddHash(mix64(op))
				rb.addHash(mix64(op))
			case 6:
				a.AddUint64(op)
				ra.addHash(HashUint64(op))
			default: // a run of one hash, as a key's own column is in its own aggregation
				for n := op>>3&3 + 1; n > 0; n-- {
					a.AddHash(mix64(op))
					ra.addHash(mix64(op))
				}
			}
		}
		check("a at the end", a, ra)
		check("b at the end", b, rb)
	})
}
