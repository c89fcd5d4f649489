package spacesaving

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"dnsobservatory/internal/bloom"
)

// Space-Saving structural invariants, maintained across arbitrary
// observation sequences:
//
//  1. the number of monitored keys never exceeds capacity;
//  2. every estimate is at least its own error term;
//  3. the sum of all counts equals the number of observations once the
//     cache has admitted every observation (no admitter);
//  4. MinCount is a lower bound of every monitored count.
func TestStructuralInvariantsQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	c := New(64, 60, nil)
	var observations uint64
	f := func(sel uint16) bool {
		key := fmt.Sprintf("k%d", int(sel)%300)
		now := float64(observations) * 0.01
		c.Observe(key, now)
		observations++

		if c.Len() > 64 {
			return false
		}
		min := c.MinCount()
		var sum uint64
		bad := false
		c.Entries(func(e *Entry) {
			sum += e.Count
			if e.Count < e.Error || e.Count < min {
				bad = true
			}
			if e.Rate < 0 {
				bad = true
			}
		})
		if bad {
			return false
		}
		// Classic Space-Saving property: total monitored count equals
		// the stream length (each observation increments exactly one
		// monitored counter, and evictions inherit counts).
		return sum == observations
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
	_ = rng
}

// With an admitter, the monitored-count sum can only lag the stream by
// the number of dropped observations.
// The filter is cleared before every observation, so it rejects every
// first sighting and remembers nothing: the harshest admission policy.
func TestAdmitterAccountingQuick(t *testing.T) {
	adm := bloom.New(1024, 0.01, 0)
	c := New(16, 60, adm)
	var observations uint64
	f := func(sel uint16) bool {
		key := fmt.Sprintf("k%d", int(sel)%500)
		adm.Reset()
		c.Observe(key, float64(observations)*0.01)
		observations++
		var sum uint64
		c.Entries(func(e *Entry) { sum += e.Count })
		return sum+c.Dropped() == observations && c.Hits() == observations
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}
