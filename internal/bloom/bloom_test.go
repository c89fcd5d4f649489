package bloom

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestNoFalseNegatives(t *testing.T) {
	f := New(1000, 0.01)
	for i := 0; i < 1000; i++ {
		f.Add(fmt.Sprintf("key-%d", i))
	}
	for i := 0; i < 1000; i++ {
		if !f.Contains(fmt.Sprintf("key-%d", i)) {
			t.Fatalf("false negative for key-%d", i)
		}
	}
}

func TestFalsePositiveRate(t *testing.T) {
	f := New(10000, 0.01)
	for i := 0; i < 10000; i++ {
		f.Add(fmt.Sprintf("in-%d", i))
	}
	var fp int
	const probes = 20000
	for i := 0; i < probes; i++ {
		if f.Contains(fmt.Sprintf("out-%d", i)) {
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
	f := New(100, 0.01)
	f.Add("alpha")
	if !f.Contains("alpha") {
		t.Fatal("missing before reset")
	}
	if f.Count() != 1 {
		t.Errorf("count = %d", f.Count())
	}
	f.Reset()
	if f.Contains("alpha") {
		t.Error("present after reset")
	}
	if f.Count() != 0 || f.FillRatio() != 0 {
		t.Errorf("count=%d fill=%f after reset", f.Count(), f.FillRatio())
	}
}

// TestBitsAllocatedByFirstAdd: a filter nothing was added to answers
// like an empty one without holding its bit array.
func TestBitsAllocatedByFirstAdd(t *testing.T) {
	f := New(1<<20, 0.01)
	if f.Contains("alpha") || f.ContainsBytes([]byte("alpha")) || f.FillRatio() != 0 {
		t.Error("a fresh filter is not empty")
	}
	f.Reset()
	if f.bits != nil {
		t.Fatal("reading or resetting a fresh filter allocated its bits")
	}
	f.AddBytes([]byte("alpha"))
	if len(f.bits) != 1<<18 || !f.Contains("alpha") || f.Contains("beta") {
		t.Errorf("after the first add: %d words, alpha %v, beta %v", len(f.bits), f.Contains("alpha"), f.Contains("beta"))
	}
}

func TestFillRatioGrows(t *testing.T) {
	f := New(1000, 0.01)
	if f.FillRatio() != 0 {
		t.Error("fresh filter not empty")
	}
	for i := 0; i < 500; i++ {
		f.Add(fmt.Sprintf("k%d", i))
	}
	if f.FillRatio() <= 0 || f.FillRatio() >= 1 {
		t.Errorf("fill ratio %f", f.FillRatio())
	}
}

func TestDegenerateParams(t *testing.T) {
	for _, f := range []*Filter{New(0, 0.01), New(10, 0), New(10, 1.5), New(-5, -1)} {
		f.Add("x")
		if !f.Contains("x") {
			t.Error("degenerate filter lost an element")
		}
	}
}

func TestAddedAlwaysContained(t *testing.T) {
	f := New(500, 0.001)
	err := quick.Check(func(s string) bool {
		f.Add(s)
		return f.Contains(s)
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}

func TestSeededDeterministic(t *testing.T) {
	// Two seeded filters with the same parameters must agree bit for bit:
	// this is what makes detection snapshots reproducible across runs and
	// across the serial/sharded engines.
	a := NewSeeded(1024, 0.01, 42)
	b := NewSeeded(1024, 0.01, 42)
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("key-%d.example.com.", i)
		a.Add(key)
		b.AddBytes([]byte(key)) // string and bytes paths share the hash
	}
	if a.Count() != b.Count() {
		t.Fatalf("counts diverged: %d vs %d", a.Count(), b.Count())
	}
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("key-%d.example.com.", i)
		if a.Contains(key) != b.Contains(key) {
			t.Fatalf("membership diverged on %q", key)
		}
		if a.Contains(key) != a.ContainsBytes([]byte(key)) {
			t.Fatalf("string/bytes view diverged on %q", key)
		}
	}
}

func TestSeededSeedsDiffer(t *testing.T) {
	// Different seeds give different hash functions: false positives of
	// one filter should not systematically repeat in the other.
	a := NewSeeded(256, 0.05, 1)
	b := NewSeeded(256, 0.05, 2)
	for i := 0; i < 256; i++ {
		a.Add(fmt.Sprintf("in-%d", i))
		b.Add(fmt.Sprintf("in-%d", i))
	}
	shared := 0
	for i := 0; i < 5000; i++ {
		key := fmt.Sprintf("out-%d", i)
		if a.Contains(key) && b.Contains(key) {
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
	f := NewSeeded(1000, 0.01, 7)
	for i := 0; i < 1000; i++ {
		f.Add(fmt.Sprintf("item-%d", i))
	}
	for i := 0; i < 1000; i++ {
		if !f.Contains(fmt.Sprintf("item-%d", i)) {
			t.Fatalf("false negative on item-%d", i)
		}
	}
}
