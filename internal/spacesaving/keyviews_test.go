package spacesaving

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dnsobservatory/internal/bloom"
)

// twinCaches are two caches of one sizing behind identically seeded
// filters small enough that false positives decide some evictions: one
// is fed the string view of every key, the other the byte view out of a
// buffer that is overwritten after each call.
type twinCaches struct {
	str, byt   *Cache
	fstr, fbyt *bloom.Filter
	buf        []byte
}

func newTwinCaches(capacity int) *twinCaches {
	tw := &twinCaches{fstr: bloom.New(64, 0.05, 19), fbyt: bloom.New(64, 0.05, 19)}
	tw.str, tw.byt = New(capacity, 60, tw.fstr), New(capacity, 60, tw.fbyt)
	return tw
}

// observe feeds key to both caches and reports which of them admitted it.
func (tw *twinCaches) observe(key []byte, now float64) (str, byt bool) {
	tw.buf = append(tw.buf[:0], key...)
	str = tw.str.Observe(string(key), now) != nil
	byt = tw.byt.ObserveBytes(tw.buf, now) != nil
	for i := range tw.buf {
		tw.buf[i] = 'X' // the cache must not have kept the buffer
	}
	return str, byt
}

func (tw *twinCaches) reset() {
	tw.fstr.Reset()
	tw.fbyt.Reset()
}

// requireEqual fails unless the two caches are in the same state: the
// same entries (key, count, error, rate to the bit, insertion time) at
// the same heap positions, and the same counters.
func (tw *twinCaches) requireEqual(t *testing.T) {
	t.Helper()
	a, b := tw.str, tw.byt
	if a.Hits() != b.Hits() || a.Dropped() != b.Dropped() || a.Evictions() != b.Evictions() || a.Len() != b.Len() {
		t.Fatalf("string view: %d hits, %d dropped, %d evictions, %d entries; byte view: %d, %d, %d, %d",
			a.Hits(), a.Dropped(), a.Evictions(), a.Len(), b.Hits(), b.Dropped(), b.Evictions(), b.Len())
	}
	for i, e := range a.min {
		o := b.min[i]
		if e.Key != o.Key || e.Count != o.Count || e.Error != o.Error || e.InsertedAt != o.InsertedAt ||
			math.Float64bits(e.Rate) != math.Float64bits(o.Rate) {
			t.Fatalf("heap slot %d: string view %+v, byte view %+v", i, *e, *o)
		}
		if b.Get(e.Key) != o {
			t.Fatalf("heap slot %d: the byte view does not index %q", i, e.Key)
		}
	}
	if tw.fstr.Count() != tw.fbyt.Count() {
		t.Fatalf("filters hold %d and %d keys", tw.fstr.Count(), tw.fbyt.Count())
	}
}

// TestKeyViewsAgree: Observe and ObserveBytes are one body, so a stream
// leaves the same cache whichever view it arrives in — through hits,
// inserts, refusals, admissions on a second sighting, false-positive
// admissions and filter resets — and the byte view allocates only when
// a key enters the cache.
func TestKeyViewsAgree(t *testing.T) {
	tw := newTwinCaches(32)
	rng := rand.New(rand.NewSource(19))
	zipf := rand.NewZipf(rng, 1.2, 4, 3000)
	firstSight := map[string]bool{}
	falsePositives := 0
	for i := 0; i < 30000; i++ {
		if i%2500 == 2499 {
			tw.reset()
			clear(firstSight)
		}
		key := fmt.Sprintf("192.0.2.%d>h%d.example.", i%3, zipf.Uint64())
		monitored, full := tw.str.Get(key) != nil, tw.str.Len() == tw.str.Capacity()
		str, byt := tw.observe([]byte(key), float64(i)/100)
		if str != byt {
			t.Fatalf("observation %d of %q: string view admitted %v, byte view %v", i, key, str, byt)
		}
		if full && !monitored {
			if str && !firstSight[key] {
				falsePositives++
			}
			firstSight[key] = true
		}
	}
	tw.requireEqual(t)
	if tw.str.Dropped() == 0 || tw.str.Evictions() == 0 || falsePositives == 0 {
		t.Fatalf("stream too tame: %d dropped, %d evictions, %d admitted by a false positive", tw.str.Dropped(), tw.str.Evictions(), falsePositives)
	}

	// What the byte view must keep costing nothing: a monitored key, and
	// a key the filter refuses (its bits are set by the first refusal, so
	// clear them each time).
	c, f := tw.byt, tw.fbyt
	hot := []byte(c.min[len(c.min)-1].Key)
	cold := []byte("never.seen.example.")
	now := 400.0
	if allocs := testing.AllocsPerRun(100, func() {
		f.Reset()
		if c.ObserveBytes(hot, now) == nil || c.ObserveBytes(cold, now) != nil {
			t.Fatal("the monitored key was refused or the unseen one admitted")
		}
	}); allocs != 0 {
		t.Errorf("ObserveBytes of a monitored and of a refused key allocates %.1f objects, want 0", allocs)
	}
	// And the string view keeps the string it is handed: an eviction
	// reuses the entry, so it allocates nothing either.
	c, f = tw.str, tw.fstr
	keys := make([]string, 202)
	for i := range keys {
		keys[i] = fmt.Sprintf("fresh%d.example.", i)
	}
	i := 0
	if allocs := testing.AllocsPerRun(100, func() {
		f.Reset()
		c.Observe(keys[i], now)
		if e := c.Observe(keys[i], now); e == nil || e.Key != keys[i] {
			t.Fatal("a second sighting was refused")
		}
		i++
	}); allocs != 0 {
		t.Errorf("Observe of a string that evicts allocates %.1f objects, want 0", allocs)
	}
}

// FuzzKeyViewsAgree: the same over arbitrary byte strings — not valid
// UTF-8, empty, long — cut from the fuzz input, with the digest of both
// views.
func FuzzKeyViewsAgree(f *testing.F) {
	f.Add([]byte("a.example.\x00b.example.\x00a.example.\x00\xff\xfe\x00\x00c"), uint8(2))
	f.Add([]byte("k0k1k2k3k4k5k6k7k0k1k9k9k8k8k7k7"), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, capacity uint8) {
		tw := newTwinCaches(int(capacity%8) + 1)
		step := int(capacity/8)%5 + 1
		for i := 0; len(data) > 0; i++ {
			n := min(step+i%3, len(data))
			key := data[:n]
			data = data[n:]
			if len(key) > 0 && key[0] == 0 {
				tw.reset()
			}
			if s, b := bloom.Sum64(tw.fstr, string(key)), bloom.Sum64(tw.fbyt, key); s != b {
				t.Fatalf("Sum64 of %q: %x as a string, %x as bytes", key, s, b)
			}
			if str, byt := tw.observe(key, float64(i)); str != byt {
				t.Fatalf("observation %d of %q: string view admitted %v, byte view %v", i, key, str, byt)
			}
			tw.requireEqual(t)
		}
	})
}
