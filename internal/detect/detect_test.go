package detect

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dnsobservatory/internal/metrics"
	"dnsobservatory/internal/sie"
	"dnsobservatory/internal/tsv"
)

// qsum builds the minimal summary the detector reads.
func qsum(qname string) *sie.Summary { return &sie.Summary{QName: qname} }

// encode renders a snapshot to its canonical TSV bytes.
func encode(t *testing.T, snap *tsv.Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := snap.WriteTo(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

func TestEntropyOf(t *testing.T) {
	var hist [39]uint32
	if got := entropyOf(&hist); got != 0 {
		t.Fatalf("empty histogram entropy = %v, want 0", got)
	}
	hist[0] = 8
	if got := entropyOf(&hist); got != 0 {
		t.Fatalf("single-class entropy = %v, want 0", got)
	}
	hist[1] = 8
	if got := entropyOf(&hist); math.Abs(got-1) > 1e-12 {
		t.Fatalf("two-class uniform entropy = %v, want 1", got)
	}
	// Uniform over 16 classes: exactly 4 bits.
	hist = [39]uint32{}
	for i := 0; i < 16; i++ {
		hist[i] = 3
	}
	if got := entropyOf(&hist); math.Abs(got-4) > 1e-12 {
		t.Fatalf("16-class uniform entropy = %v, want 4", got)
	}
}

func TestCharClasses(t *testing.T) {
	d := New(Config{Partitions: 1, Capacity: 16})
	// Dots are skipped; upper and lower case fold together; digits,
	// dashes, underscores and other bytes land in their own classes.
	d.Observe(qsum("aA9-_\x7f.example.com."), 1)
	parts := d.CollectAll(0, 60)
	ic := parts[0].IC
	if len(ic.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(ic.Rows))
	}
	row := ic.Rows[0]
	if row.Key != "example.com." {
		t.Fatalf("key = %q", row.Key)
	}
	// 6 content chars ("aA9-_" + 0x7f; the label dot is skipped),
	// classes {a:2, 9:1, -:1, _:1, other:1} -> entropy of {2,1,1,1,1}/6.
	wantEnt := -(2.0/6*math.Log2(2.0/6) + 4*(1.0/6*math.Log2(1.0/6)))
	sublen, ent := row.Values[4], row.Values[3]
	if sublen != 6 {
		t.Fatalf("sublen = %v, want 6", sublen)
	}
	if math.Abs(ent-wantEnt) > 1e-12 {
		t.Fatalf("entropy = %v, want %v", ent, wantEnt)
	}
	if row.Values[1] != 1 { // window hits
		t.Fatalf("hits = %v, want 1", row.Values[1])
	}
	if row.Values[0] <= 0 { // score = ent * sublen * rate
		t.Fatalf("score = %v, want > 0", row.Values[0])
	}
}

func TestObserveRootSkipped(t *testing.T) {
	d := New(Config{Partitions: 1})
	// A bare public suffix is its own eSLD (matching the esld
	// aggregation's keying); only the root has nothing to track.
	d.Observe(qsum("com."), 1)
	d.Observe(qsum("."), 1)
	c := d.Counters()
	if c.Offered != 2 || c.Observed != 1 {
		t.Fatalf("offered=%d observed=%d, want 2/1", c.Offered, c.Observed)
	}
	if _, _, ok := d.AppendKey(qsum("."), nil); ok {
		t.Fatal("AppendKey accepted the root")
	}
	if key, _, ok := d.AppendKey(qsum("com."), nil); !ok || string(key) != "com." {
		t.Fatalf("AppendKey(com.) = %q/%v, want com./true", key, ok)
	}
}

func TestESLDOnlyQueryScoresZero(t *testing.T) {
	d := New(Config{Partitions: 1})
	d.Observe(qsum("example.com."), 1) // no subdomain: zero content chars
	parts := d.CollectAll(0, 60)
	row := parts[0].IC.Rows[0]
	if row.Values[0] != 0 || row.Values[3] != 0 || row.Values[4] != 0 {
		t.Fatalf("score/entropy/sublen = %v/%v/%v, want all 0",
			row.Values[0], row.Values[3], row.Values[4])
	}
}

func TestNODRotationBoundary(t *testing.T) {
	// horizon 40 s over 4 buckets: 10 s per bucket.
	cfg := Config{Partitions: 1, NODHorizonSec: 40, NODBuckets: 4}
	d := New(cfg)

	// First sighting at t=9.5: first-seen exactly once, even when the
	// next observation lands just across the bucket boundary.
	d.Observe(qsum("a.fresh.org."), 9.5)
	d.Observe(qsum("b.fresh.org."), 10.5)
	c := d.Counters()
	if c.FirstSeen != 1 || c.Seen != 1 {
		t.Fatalf("across boundary: firstSeen=%d seen=%d, want 1/1", c.FirstSeen, c.Seen)
	}

	// Silent for a full horizon: every bucket holding the key has been
	// recycled, so the next sighting is first-seen again.
	d.Observe(qsum("c.fresh.org."), 10.5+41)
	c = d.Counters()
	if c.FirstSeen != 2 {
		t.Fatalf("after horizon: firstSeen=%d, want 2", c.FirstSeen)
	}

	// Steady re-observation refreshes the seen-set (since-last-seen
	// semantics): touching the key every bucket keeps it "seen" far past
	// the horizon measured from the first sighting.
	base := 200.0
	d2 := New(cfg)
	for i := 0; i < 12; i++ { // 120 s > 2 horizons, one touch per 10 s
		d2.Observe(qsum("x.steady.net."), base+float64(i)*10)
	}
	c2 := d2.Counters()
	if c2.FirstSeen != 1 || c2.Seen != 11 {
		t.Fatalf("steady: firstSeen=%d seen=%d, want 1/11", c2.FirstSeen, c2.Seen)
	}

	// A gap much longer than the horizon takes the full-reset path.
	d2.Observe(qsum("y.steady.net."), base+120+1000)
	if c := d2.Counters(); c.FirstSeen != 2 {
		t.Fatalf("after gap: firstSeen=%d, want 2", c.FirstSeen)
	}
}

func TestNODFirstSeenOncePerHorizonWindowDump(t *testing.T) {
	// Window dumps must not re-emit a key that stays active: the seen-set
	// persists across CollectWindow even though the row map is cleared.
	cfg := Config{Partitions: 1, NODHorizonSec: 120, NODBuckets: 4}
	d := New(cfg)
	d.Observe(qsum("w.roll.io."), 5)
	p1 := d.CollectAll(0, 60)
	d.Observe(qsum("w.roll.io."), 65)
	p2 := d.CollectAll(60, 120)
	if n := len(p1[0].NOD.Rows); n != 1 {
		t.Fatalf("window 1 NOD rows = %d, want 1", n)
	}
	if n := len(p2[0].NOD.Rows); n != 0 {
		t.Fatalf("window 2 NOD rows = %d, want 0 (still within horizon)", n)
	}
	if p2[0].Seen != 1 || p2[0].FirstSeen != 0 {
		t.Fatalf("window 2 deltas: firstSeen=%d seen=%d, want 0/1",
			p2[0].FirstSeen, p2[0].Seen)
	}
}

func TestNODOverflowCap(t *testing.T) {
	d := New(Config{Partitions: 1, NODMaxPerWindow: 2})
	for i := 0; i < 5; i++ {
		d.Observe(qsum(fmt.Sprintf("h.site%d.org.", i)), 1)
	}
	c := d.Counters()
	if c.FirstSeen != 2 || c.Overflow != 3 {
		t.Fatalf("firstSeen=%d overflow=%d, want 2/3", c.FirstSeen, c.Overflow)
	}
	// Overflowed keys still entered the seen-set: no late first-seen.
	d.Observe(qsum("h.site4.org."), 2)
	if c := d.Counters(); c.FirstSeen != 2 || c.Seen != 1 {
		t.Fatalf("re-observe overflowed: firstSeen=%d seen=%d, want 2/1",
			c.FirstSeen, c.Seen)
	}
}

func TestAccountingIdentity(t *testing.T) {
	d := New(Config{Partitions: 4, Capacity: 64, NODMaxPerWindow: 8})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		name := fmt.Sprintf("s%d.dom%d.com.", rng.Intn(50), rng.Intn(200))
		d.Observe(qsum(name), float64(i)/10)
	}
	c := d.Counters()
	if c.Observed != c.FirstSeen+c.Seen+c.Overflow {
		t.Fatalf("NOD identity broken: %d != %d+%d+%d",
			c.Observed, c.FirstSeen, c.Seen, c.Overflow)
	}
	if c.Observed != c.ICHits {
		t.Fatalf("IC identity broken: observed %d != ic hits %d", c.Observed, c.ICHits)
	}
	if c.Offered < c.Observed {
		t.Fatalf("offered %d < observed %d", c.Offered, c.Observed)
	}
}

// TestSerialBytesPathEquivalence drives the same stream through the
// serial path (Observe) and the sharded path (AppendKey +
// ObservePartition + RecordOffered) and requires byte-identical merged
// snapshots — the property the sharded engine's determinism rests on.
func TestSerialBytesPathEquivalence(t *testing.T) {
	cfg := Config{Partitions: 8, Capacity: 128, NODHorizonSec: 120, NODBuckets: 4}
	serial := New(cfg)
	bytesPath := New(cfg)

	rng := rand.New(rand.NewSource(42))
	var names []string
	for i := 0; i < 3000; i++ {
		names = append(names, fmt.Sprintf("%c%d.zone%d.net.",
			'a'+rng.Intn(26), rng.Intn(100), rng.Intn(300)))
	}
	names = append(names, "com.", "arpa.") // no-eSLD cases

	var buf []byte
	for i, name := range names {
		now := float64(i) / 20
		sum := qsum(name)
		serial.Observe(sum, now)

		bytesPath.RecordOffered()
		buf = buf[:0]
		key, part, ok := bytesPath.AppendKey(sum, buf)
		if !ok {
			continue
		}
		bytesPath.ObservePartition(part, key, sum, now)
	}

	we := float64(len(names)) / 20
	icA, nodA := serial.MergeWindow(serial.CollectAll(0, we))
	icB, nodB := bytesPath.MergeWindow(bytesPath.CollectAll(0, we))
	if !bytes.Equal(encode(t, icA), encode(t, icB)) {
		t.Fatal("detect_esld snapshots differ between string and bytes paths")
	}
	if !bytes.Equal(encode(t, nodA), encode(t, nodB)) {
		t.Fatal("detect_nod snapshots differ between string and bytes paths")
	}
	ca, cb := serial.Counters(), bytesPath.Counters()
	if ca != cb {
		t.Fatalf("counters diverged: serial %+v bytes %+v", ca, cb)
	}
}

// TestMergeOrderIndependence shuffles the partition parts before
// merging: the merged snapshot must not depend on collection order.
func TestMergeOrderIndependence(t *testing.T) {
	cfg := Config{Partitions: 8, Capacity: 128}
	d := New(cfg)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 2000; i++ {
		d.Observe(qsum(fmt.Sprintf("q%d.host%d.org.", rng.Intn(40), rng.Intn(150))), float64(i)/30)
	}
	parts := d.CollectAll(0, 60)
	ic1, nod1 := d.MergeWindow(parts)
	shuffled := append([]WindowPart(nil), parts...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	ic2, nod2 := d.MergeWindow(shuffled)
	if !bytes.Equal(encode(t, ic1), encode(t, ic2)) {
		t.Fatal("merged detect_esld depends on part order")
	}
	if !bytes.Equal(encode(t, nod1), encode(t, nod2)) {
		t.Fatal("merged detect_nod depends on part order")
	}
}

func TestWindowDeltasAndTotals(t *testing.T) {
	d := New(Config{Partitions: 2})
	d.Observe(qsum("a.w1.com."), 1)
	d.Observe(qsum("b.w1.com."), 2)
	d.Observe(qsum("."), 3) // offered, not observed
	parts := d.CollectAll(0, 60)
	var off, obs uint64
	for _, p := range parts {
		off += p.Offered
		obs += p.Observed
	}
	if off != 3 || obs != 2 {
		t.Fatalf("window 1 deltas: offered=%d observed=%d, want 3/2", off, obs)
	}
	ic, nod := d.MergeWindow(parts)
	if ic.TotalBefore != 3 || ic.TotalAfter != 2 {
		t.Fatalf("ic totals = %d/%d, want 3/2", ic.TotalBefore, ic.TotalAfter)
	}
	if nod.TotalBefore != 3 || nod.TotalAfter != 2 {
		t.Fatalf("nod totals = %d/%d, want 3/2", nod.TotalBefore, nod.TotalAfter)
	}

	// Second window starts from zero deltas.
	d.Observe(qsum("a.w1.com."), 61)
	parts = d.CollectAll(60, 120)
	off, obs = 0, 0
	for _, p := range parts {
		off += p.Offered
		obs += p.Observed
	}
	if off != 1 || obs != 1 {
		t.Fatalf("window 2 deltas: offered=%d observed=%d, want 1/1", off, obs)
	}
}

func TestMergeTruncatesToK(t *testing.T) {
	d := New(Config{Partitions: 2, K: 5, NODK: 3, Capacity: 256, NODMaxPerWindow: 256})
	for i := 0; i < 50; i++ {
		name := fmt.Sprintf("deadbeef%02d.t%02d.com.", i, i)
		for j := 0; j <= i%7; j++ {
			d.Observe(qsum(name), float64(i))
		}
	}
	ic, nod := d.MergeWindow(d.CollectAll(0, 60))
	if len(ic.Rows) != 5 {
		t.Fatalf("ic rows = %d, want K=5", len(ic.Rows))
	}
	if len(nod.Rows) != 3 {
		t.Fatalf("nod rows = %d, want NODK=3", len(nod.Rows))
	}
	for i := 1; i < len(ic.Rows); i++ {
		if ic.Rows[i].Values[0] > ic.Rows[i-1].Values[0] {
			t.Fatal("ic rows not sorted by descending score")
		}
	}
}

func TestPublishWindowMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	d := New(Config{Partitions: 2, Metrics: reg})
	d.Observe(qsum("aa.pub1.com."), 1)
	d.Observe(qsum("bb.pub2.com."), 2)
	d.Observe(qsum("aa.pub1.com."), 3)
	parts := d.CollectAll(0, 60)
	d.PublishWindow(parts)
	if got := reg.SumCounter(MetricObserved); got != 3 {
		t.Fatalf("%s = %d, want 3", MetricObserved, got)
	}
	if got := reg.SumCounter(MetricNODFirstSeen); got != 2 {
		t.Fatalf("%s = %d, want 2", MetricNODFirstSeen, got)
	}
	if got := reg.SumCounter(MetricNODSeen); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricNODSeen, got)
	}
	if got := reg.Sum(MetricICTracked); got != 2 {
		t.Fatalf("%s = %v, want 2 tracked eSLDs", MetricICTracked, got)
	}
}

func TestDefaultsApplied(t *testing.T) {
	d := New(Config{})
	if d.Partitions() != DefaultConfig().Partitions {
		t.Fatalf("partitions = %d, want default %d", d.Partitions(), DefaultConfig().Partitions)
	}
	// The zero config must be fully usable.
	d.Observe(qsum("x.defaults.org."), 1)
	if c := d.Counters(); c.Observed != 1 {
		t.Fatalf("observed = %d, want 1", c.Observed)
	}
}

func TestEvictionRecyclesState(t *testing.T) {
	// A tiny cache forces evictions; the identity and window collection
	// must survive heavy churn, and evicted state is recycled.
	d := New(Config{Partitions: 1, Capacity: 4, AdmitterN: 64})
	for i := 0; i < 400; i++ {
		// Repeat each name enough to pass the Bloom admitter.
		name := fmt.Sprintf("qqq.churn%d.com.", i%40)
		d.Observe(qsum(name), float64(i)/100)
		d.Observe(qsum(name), float64(i)/100)
	}
	c := d.Counters()
	if c.Observed != c.FirstSeen+c.Seen+c.Overflow || c.Observed != c.ICHits {
		t.Fatalf("identity broken under churn: %+v", c)
	}
	parts := d.CollectAll(0, 60)
	if parts[0].ICLen > 4 {
		t.Fatalf("cache grew past capacity: %d", parts[0].ICLen)
	}
	if parts[0].ICEvictions == 0 {
		t.Fatal("expected evictions under churn")
	}
}
