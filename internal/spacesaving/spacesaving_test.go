package spacesaving

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dnsobservatory/internal/bloom"
)

func TestExactWhenUnderCapacity(t *testing.T) {
	c := New(100, 60, nil)
	for i := 0; i < 50; i++ {
		for j := 0; j <= i; j++ {
			c.Observe(fmt.Sprintf("k%02d", i), float64(j))
		}
	}
	if c.Len() != 50 {
		t.Fatalf("len = %d", c.Len())
	}
	top := c.Top(3)
	if top[0].Key != "k49" || top[0].Count != 50 || top[0].Error != 0 {
		t.Errorf("top[0] = %+v", top[0])
	}
	if top[1].Key != "k48" || top[2].Key != "k47" {
		t.Errorf("order: %s %s", top[1].Key, top[2].Key)
	}
}

func TestEvictionInheritsCount(t *testing.T) {
	c := New(2, 60, nil)
	c.Observe("a", 0)
	c.Observe("a", 1)
	c.Observe("a", 2) // a: 3
	c.Observe("b", 3) // b: 1
	e := c.Observe("x", 4)
	if e == nil {
		t.Fatal("x not admitted without filter")
	}
	// x replaced b (min count 1) and inherited it: count 2, error 1.
	if e.Key != "x" || e.Count != 2 || e.Error != 1 {
		t.Errorf("entry = %+v", e)
	}
	if c.Get("b") != nil {
		t.Error("b still present")
	}
	if c.Get("a") == nil {
		t.Error("a evicted wrongly")
	}
}

func TestOverestimationBound(t *testing.T) {
	// Classic SS guarantee: true count <= estimate <= true count + min.
	rng := rand.New(rand.NewSource(3))
	c := New(50, 60, nil)
	truth := map[string]uint64{}
	// Zipf-ish stream over 500 keys.
	zipf := rand.NewZipf(rng, 1.3, 1, 499)
	for i := 0; i < 100000; i++ {
		k := fmt.Sprintf("key%03d", zipf.Uint64())
		truth[k]++
		c.Observe(k, float64(i)/1000)
	}
	c.Entries(func(e *Entry) {
		if e.Count < truth[e.Key] {
			t.Errorf("%s: estimate %d below truth %d", e.Key, e.Count, truth[e.Key])
		}
		if e.Count-e.Error > truth[e.Key] {
			t.Errorf("%s: estimate-error %d above truth %d", e.Key, e.Count-e.Error, truth[e.Key])
		}
	})
}

func TestHeavyHittersSurvive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := New(100, 60, nil)
	// 10 heavy keys at 5% each, the rest spread over 10k rare keys.
	for i := 0; i < 200000; i++ {
		var k string
		if rng.Float64() < 0.5 {
			k = fmt.Sprintf("heavy%d", rng.Intn(10))
		} else {
			k = fmt.Sprintf("rare%d", rng.Intn(10000))
		}
		c.Observe(k, float64(i)/1000)
	}
	top := c.Top(10)
	heavies := 0
	for _, e := range top {
		if len(e.Key) > 5 && e.Key[:5] == "heavy" {
			heavies++
		}
	}
	if heavies < 10 {
		t.Errorf("only %d/10 heavy hitters in top-10", heavies)
	}
}

func TestAdmissionFilterBlocksOneOffs(t *testing.T) {
	f := bloom.New(100000, 0.01, 0)
	c := New(10, 60, f)
	for i := 0; i < 10; i++ {
		for j := 0; j < 5; j++ {
			c.Observe(fmt.Sprintf("stable%d", i), float64(i*5+j))
		}
	}
	// A flood of unique keys must not displace the stable set.
	for i := 0; i < 10000; i++ {
		if e := c.Observe(fmt.Sprintf("oneoff%d", i), 100+float64(i)); e != nil {
			t.Fatalf("one-off %d admitted on first sight", i)
		}
	}
	for i := 0; i < 10; i++ {
		if c.Get(fmt.Sprintf("stable%d", i)) == nil {
			t.Errorf("stable%d evicted by one-offs", i)
		}
	}
	if c.Dropped() == 0 {
		t.Error("dropped counter is zero")
	}
	// The second sighting of the same key is admitted.
	if e := c.Observe("oneoff42", 20101); e == nil {
		t.Error("second sighting rejected")
	}
}

func TestStateDiscardedOnEviction(t *testing.T) {
	c := New(1, 60, nil)
	e := c.Observe("first", 0)
	e.State = "payload"
	e2 := c.Observe("second", 1)
	if e2.State != nil {
		t.Errorf("state leaked across eviction: %v", e2.State)
	}
	if e2.InsertedAt != 1 {
		t.Errorf("InsertedAt = %f", e2.InsertedAt)
	}
}

func TestRateConvergesToArrivalRate(t *testing.T) {
	c := New(10, 10, nil)
	// 20 events/s for 60 s.
	var e *Entry
	for i := 0; i < 1200; i++ {
		e = c.Observe("steady", float64(i)*0.05)
	}
	if math.Abs(e.Rate-20)/20 > 0.15 {
		t.Errorf("rate = %.2f, want ~20", e.Rate)
	}
}

func TestRateDecays(t *testing.T) {
	c := New(10, 10, nil)
	var e *Entry
	for i := 0; i < 500; i++ {
		e = c.Observe("burst", float64(i)*0.05)
	}
	high := e.Rate
	// One observation long after the burst: the decayed estimate must
	// have dropped by roughly 2^(-100/10).
	e = c.Observe("burst", 25+100)
	if e.Rate > high/500 {
		t.Errorf("rate %.4f did not decay from %.2f", e.Rate, high)
	}
}

func TestRateAtDecaysIdleEntries(t *testing.T) {
	c := New(10, 10, nil)
	var e *Entry
	for i := 0; i < 400; i++ {
		e = c.Observe("idle", float64(i)*0.05) // 20/s for 20 s
	}
	stored := e.Rate
	live := c.RateAt(e, 20)
	if math.Abs(live-stored) > stored*0.01 {
		t.Errorf("RateAt just after the last observation strayed: %f vs %f", live, stored)
	}
	// Three half-lives later the read-side decay must report ~1/8.
	later := c.RateAt(e, 50)
	if later > live/6 || later < live/12 {
		t.Errorf("RateAt(+3 half-lives) = %f, want ~%f", later, live/8)
	}
	// The stored field must be untouched by reads.
	if e.Rate != stored {
		t.Errorf("stored rate mutated: %f", e.Rate)
	}
	// A time before the last update returns the stored value.
	if c.RateAt(e, 0) != e.Rate {
		t.Error("past time should clamp to stored rate")
	}
}

func TestSameInstantBurst(t *testing.T) {
	c := New(10, 60, nil)
	var e *Entry
	for i := 0; i < 100; i++ {
		e = c.Observe("instant", 5.0)
	}
	if e.Rate <= 0 || math.IsInf(e.Rate, 0) || math.IsNaN(e.Rate) {
		t.Errorf("rate = %f", e.Rate)
	}
}

func TestMinCount(t *testing.T) {
	c := New(3, 60, nil)
	if c.MinCount() != 0 {
		t.Error("min of empty cache")
	}
	c.Observe("a", 0)
	c.Observe("a", 0)
	c.Observe("b", 0)
	if c.MinCount() != 1 {
		t.Errorf("min = %d", c.MinCount())
	}
}

func TestHitsCounter(t *testing.T) {
	c := New(2, 60, nil)
	for i := 0; i < 7; i++ {
		c.Observe("x", float64(i))
	}
	if c.Hits() != 7 {
		t.Errorf("hits = %d", c.Hits())
	}
}

func TestTopNTruncation(t *testing.T) {
	c := New(10, 60, nil)
	for i := 0; i < 10; i++ {
		c.Observe(fmt.Sprintf("k%d", i), 0)
	}
	if got := len(c.Top(3)); got != 3 {
		t.Errorf("Top(3) len = %d", got)
	}
	if got := len(c.Top(0)); got != 10 {
		t.Errorf("Top(0) len = %d", got)
	}
	if got := len(c.Top(100)); got != 10 {
		t.Errorf("Top(100) len = %d", got)
	}
}

func TestDegenerateCapacity(t *testing.T) {
	c := New(0, 0, nil)
	if e := c.Observe("only", 0); e == nil {
		t.Fatal("capacity-1 cache rejected first key")
	}
	if c.Len() != 1 {
		t.Errorf("len = %d", c.Len())
	}
}
