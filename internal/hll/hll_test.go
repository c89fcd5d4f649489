package hll

import (
	"fmt"
	"math"
	"testing"
)

func TestNewValidatesPrecision(t *testing.T) {
	for _, p := range []uint8{0, 1, 3, 19, 200} {
		if _, err := New(p); err != ErrPrecision {
			t.Errorf("New(%d) err = %v", p, err)
		}
	}
	for _, p := range []uint8{4, 12, 18} {
		s, err := New(p)
		if err != nil || s.Precision() != p {
			t.Errorf("New(%d) = %v, %v", p, s, err)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	MustNew(1)
}

func TestEmptyEstimate(t *testing.T) {
	s := MustNew(12)
	if got := s.Count(); got != 0 {
		t.Errorf("empty count = %d", got)
	}
}

func TestSmallExactRange(t *testing.T) {
	// Linear counting keeps small cardinalities nearly exact.
	s := MustNew(12)
	for i := 0; i < 100; i++ {
		s.Add(fmt.Sprintf("item-%d", i))
	}
	got := float64(s.Count())
	if math.Abs(got-100) > 5 {
		t.Errorf("count = %v, want ~100", got)
	}
}

func TestDuplicatesDoNotCount(t *testing.T) {
	s := MustNew(12)
	for round := 0; round < 50; round++ {
		for i := 0; i < 20; i++ {
			s.Add(fmt.Sprintf("dup-%d", i))
		}
	}
	got := float64(s.Count())
	if math.Abs(got-20) > 3 {
		t.Errorf("count = %v, want ~20", got)
	}
}

func TestAccuracyAtScale(t *testing.T) {
	for _, n := range []int{1000, 10000, 100000} {
		s := MustNew(12)
		for i := 0; i < n; i++ {
			s.Add(fmt.Sprintf("scale-%d-%d", n, i))
		}
		got := float64(s.Count())
		relErr := math.Abs(got-float64(n)) / float64(n)
		// p=12 gives sigma ~1.6%; 5 sigma bound.
		if relErr > 0.08 {
			t.Errorf("n=%d: estimate %v, relative error %.3f", n, got, relErr)
		}
	}
}

func TestReset(t *testing.T) {
	s := MustNew(10)
	for i := 0; i < 100; i++ {
		s.Add(fmt.Sprintf("r-%d", i))
	}
	s.Reset()
	if got := s.Count(); got != 0 {
		t.Errorf("count after reset = %d", got)
	}
}

func TestAddUint64(t *testing.T) {
	s := MustNew(12)
	for i := uint64(0); i < 1000; i++ {
		s.AddUint64(i)
		s.AddUint64(i) // duplicate
	}
	got := float64(s.Count())
	if math.Abs(got-1000)/1000 > 0.08 {
		t.Errorf("count = %v, want ~1000", got)
	}
}

func TestDeterministicAcrossSketches(t *testing.T) {
	// Two sketches over the same input must agree exactly — required for
	// time aggregation to be meaningful.
	a, b := MustNew(12), MustNew(12)
	for i := 0; i < 10000; i++ {
		a.Add(fmt.Sprintf("d-%d", i))
		b.Add(fmt.Sprintf("d-%d", i))
	}
	if a.Count() != b.Count() {
		t.Errorf("sketches disagree: %d vs %d", a.Count(), b.Count())
	}
}
