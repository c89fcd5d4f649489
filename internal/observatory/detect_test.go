package observatory

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"dnsobservatory/internal/detect"
	"dnsobservatory/internal/dnswire"
	"dnsobservatory/internal/tsv"
)

// detectTestConfig sizes the detection layer small enough that the test
// stream exercises evictions and NOD rotation. Determinism does not
// depend on generous capacities: partitions and Bloom seeds are fixed,
// so per-partition eviction order is a pure function of the sub-stream.
func detectTestConfig() *detect.Config {
	return &detect.Config{
		K:             40,
		NODK:          60,
		Capacity:      96,
		Partitions:    8,
		NODHorizonSec: 180,
		NODBuckets:    4,
	}
}

// encodeSnap renders a snapshot to its canonical TSV byte form.
func encodeSnap(t *testing.T, s *tsv.Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatalf("encode %s@%d: %v", s.Aggregation, s.Start, err)
	}
	return buf.Bytes()
}

// TestShardedDetectMatchesSerialBytes is the detection determinism
// contract: with identical detect configs, the sharded engine's
// detect_esld and detect_nod snapshots must be byte-identical to the
// serial pipeline's, for any worker/shard combination — including
// worker counts that do not divide the partition count.
func TestShardedDetectMatchesSerialBytes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SkipFreshObjects = false
	cfg.Detect = detectTestConfig()
	events := shardedTestEvents(6000)

	collect := func(snaps *[]*tsv.Snapshot) func(*tsv.Snapshot) {
		return func(s *tsv.Snapshot) {
			if s.Aggregation == detect.AggESLD || s.Aggregation == detect.AggNOD {
				*snaps = append(*snaps, s)
			}
		}
	}

	var serial []*tsv.Snapshot
	sp := New(cfg, shardedTestAggs(), collect(&serial))
	for _, e := range events {
		sp.Ingest(sum(e.resolver, e.ns, e.qname, e.qtype), e.now)
	}
	sp.Close()
	sortSnaps(serial)
	if len(serial) == 0 {
		t.Fatal("serial pipeline emitted no detect snapshots")
	}
	serialBytes := make([][]byte, len(serial))
	for i, s := range serial {
		serialBytes[i] = encodeSnap(t, s)
	}

	for _, tc := range []struct{ shards, workers int }{
		{1, 1}, {4, 2}, {4, 4}, {7, 3}, {2, 5},
	} {
		t.Run(fmt.Sprintf("s%dw%d", tc.shards, tc.workers), func(t *testing.T) {
			var sharded []*tsv.Snapshot
			eng := NewSharded(
				ShardedConfig{Config: cfg, Shards: tc.shards, Workers: tc.workers, BatchSize: 64},
				shardedTestAggs(), collect(&sharded))
			for _, e := range events {
				eng.Ingest(sum(e.resolver, e.ns, e.qname, e.qtype), e.now)
			}
			eng.Close()
			sortSnaps(sharded)
			if len(sharded) != len(serial) {
				t.Fatalf("detect snapshots: serial %d, sharded %d", len(serial), len(sharded))
			}
			for i := range serial {
				if got := encodeSnap(t, sharded[i]); !bytes.Equal(serialBytes[i], got) {
					t.Fatalf("%s not byte-identical to serial:\nserial:\n%s\nsharded:\n%s",
						snapKey(serial[i]), serialBytes[i], got)
				}
			}
		})
	}
}

// TestShardedDetectVolumeSnapshotsUnchanged guards the regular
// aggregations against the detect slot: enabling detection must not
// perturb the volume snapshots.
func TestShardedDetectVolumeSnapshotsUnchanged(t *testing.T) {
	events := shardedTestEvents(3000)
	run := func(det *detect.Config) []*tsv.Snapshot {
		cfg := DefaultConfig()
		cfg.SkipFreshObjects = false
		cfg.Detect = det
		var snaps []*tsv.Snapshot
		eng := NewSharded(ShardedConfig{Config: cfg, Shards: 4, Workers: 2, BatchSize: 32},
			shardedTestAggs(), func(s *tsv.Snapshot) {
				if s.Aggregation != detect.AggESLD && s.Aggregation != detect.AggNOD {
					snaps = append(snaps, s)
				}
			})
		for _, e := range events {
			eng.Ingest(sum(e.resolver, e.ns, e.qname, e.qtype), e.now)
		}
		eng.Close()
		sortSnaps(snaps)
		return snaps
	}
	requireSnapsEqual(t, run(nil), run(detectTestConfig()))
}

// TestShardedDetectConcurrentProducersAccounting hammers a detecting
// sharded engine from several producers (run under -race) and checks
// the exact accounting identity afterwards: every accepted transaction
// was offered to the detector, and every eSLD observation is accounted
// as exactly one of first-seen, seen, or overflow — and equals the
// information-content hit count.
func TestShardedDetectConcurrentProducersAccounting(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SkipFreshObjects = false
	cfg.Detect = detectTestConfig()
	eng := NewSharded(ShardedConfig{Config: cfg, Shards: 4, Workers: 3, BatchSize: 16},
		shardedTestAggs(), nil)

	const producers = 4
	const perProducer = 3000
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			s := sum("192.0.2.1", "198.51.100.1", "x.example.com.", dnswire.TypeA)
			for i := 0; i < perProducer; i++ {
				s.QName = fmt.Sprintf("w%d-%d.race%d.com.", p, i%90, i%120)
				eng.Ingest(s, float64(i)*0.01)
			}
		}(p)
	}
	wg.Wait()
	eng.Close()

	c := eng.det.Counters()
	if c.Offered != producers*perProducer {
		t.Fatalf("offered = %d, want %d", c.Offered, producers*perProducer)
	}
	if c.Observed != c.Offered {
		// Every test qname has an eSLD, so nothing is filtered.
		t.Fatalf("observed = %d, want %d", c.Observed, c.Offered)
	}
	if c.Observed != c.FirstSeen+c.Seen+c.Overflow {
		t.Fatalf("NOD identity broken: %d != %d+%d+%d",
			c.Observed, c.FirstSeen, c.Seen, c.Overflow)
	}
	if c.Observed != c.ICHits {
		t.Fatalf("IC identity broken: observed %d != ic hits %d", c.Observed, c.ICHits)
	}
}

// TestSerialDetectAccessor covers the serial pipeline's detector and
// that detection stays off (nil) unless configured.
func TestSerialDetectAccessor(t *testing.T) {
	cfg := DefaultConfig()
	p := New(cfg, shardedTestAggs(), nil)
	if p.det != nil {
		t.Fatal("detector non-nil without cfg.Detect")
	}
	cfg.Detect = detectTestConfig()
	p = New(cfg, shardedTestAggs(), nil)
	if p.det == nil {
		t.Fatal("detector nil with cfg.Detect set")
	}
	p.Ingest(sum("192.0.2.1", "198.51.100.1", "a.acc.com.", dnswire.TypeA), 1)
	p.Close()
	if c := p.det.Counters(); c.Observed != 1 {
		t.Fatalf("observed = %d, want 1", c.Observed)
	}
}
