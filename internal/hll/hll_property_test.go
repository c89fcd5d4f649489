package hll

import (
	"testing"
	"testing/quick"
)

// Adding elements never decreases the estimate.
func TestMonotoneQuick(t *testing.T) {
	s := MustNew(10)
	prev := uint64(0)
	f := func(x uint32) bool {
		s.AddUint64(uint64(x))
		c := s.Count()
		ok := c+2 >= prev // tiny jitter from linear-counting boundaries
		if c > prev {
			prev = c
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
