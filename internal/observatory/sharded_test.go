package observatory

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"testing"

	"dnsobservatory/internal/dnswire"
	"dnsobservatory/internal/sie"
	"dnsobservatory/internal/tsv"
)

func shardedTestAggs() []Aggregation {
	// Capacities exceed the distinct-key counts of the test stream so no
	// Space-Saving eviction occurs and sharded output must match serial
	// exactly. NoAdmitter everywhere: a filter guards evictions, and here
	// there are none.
	return []Aggregation{
		{Name: "srvip", K: 200, Key: SrvIPKey, NoAdmitter: true},
		{Name: "qname", K: 800, Key: QNameKey, NoAdmitter: true},
		{Name: "qtype", K: 16, Key: QTypeKey, NoAdmitter: true},
		{Name: "aafqdn", K: 800, Key: AAFQDNKey, NoAdmitter: true},
		// srcsrv exercises the KeyBytes (buffer-built composite key) path
		// in both the serial and sharded engines.
		{Name: "srcsrv", K: 800, Key: SrcSrvKey, KeyBytes: SrcSrvKeyBytes, NoAdmitter: true},
	}
}

type shardedEvent struct {
	resolver, ns, qname string
	qtype               dnswire.Type
	now                 float64
}

func shardedTestEvents(n int) []shardedEvent {
	events := make([]shardedEvent, 0, n)
	for i := 0; i < n; i++ {
		events = append(events, shardedEvent{
			resolver: fmt.Sprintf("192.0.2.%d", i%20+1),
			ns:       fmt.Sprintf("198.51.100.%d", i%50+1),
			qname:    fmt.Sprintf("h%d.example%d.com.", i%7, i%90),
			qtype:    dnswire.TypeA,
			now:      float64(i) * 0.05,
		})
	}
	return events
}

func snapKey(s *tsv.Snapshot) string { return fmt.Sprintf("%s@%d", s.Aggregation, s.Start) }

func sortSnaps(ss []*tsv.Snapshot) {
	sort.Slice(ss, func(i, j int) bool { return snapKey(ss[i]) < snapKey(ss[j]) })
}

func requireSnapsEqual(t *testing.T, want, got []*tsv.Snapshot) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("snapshot counts: want %d, got %d", len(want), len(got))
	}
	for i := range want {
		a, b := want[i], got[i]
		if snapKey(a) != snapKey(b) {
			t.Fatalf("snapshot %d: %s vs %s", i, snapKey(a), snapKey(b))
		}
		if a.TotalBefore != b.TotalBefore || a.TotalAfter != b.TotalAfter {
			t.Fatalf("%s stats: %d/%d vs %d/%d", snapKey(a),
				a.TotalBefore, a.TotalAfter, b.TotalBefore, b.TotalAfter)
		}
		if len(a.Rows) != len(b.Rows) {
			t.Fatalf("%s: rows %d vs %d", snapKey(a), len(a.Rows), len(b.Rows))
		}
		for j := range a.Rows {
			if a.Rows[j].Key != b.Rows[j].Key {
				t.Fatalf("%s row %d: %s vs %s", snapKey(a), j, a.Rows[j].Key, b.Rows[j].Key)
			}
			for c := range a.Rows[j].Values {
				if va, vb := a.Rows[j].Values[c], b.Rows[j].Values[c]; va != vb {
					t.Fatalf("%s row %s col %s: %v vs %v",
						snapKey(a), a.Rows[j].Key, a.Columns[c], va, vb)
				}
			}
		}
	}
}

// TestShardedMatchesSerial is the determinism contract: a fixed stream
// fed through any configuration of the engine must yield the snapshots
// the inline pipeline yields — keys partition across shards, every
// worker crosses window boundaries at the same item, and the emit
// reunites the rows (one sorted part, or several side by side).
func TestShardedMatchesSerial(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SkipFreshObjects = false
	events := shardedTestEvents(5000)
	run := func(shape engineShape) []*tsv.Snapshot {
		var snaps []*tsv.Snapshot
		eng := shape.build(cfg, shardedTestAggs(), func(s *tsv.Snapshot) { snaps = append(snaps, s) })
		for _, e := range events {
			eng.ingest(sum(e.resolver, e.ns, e.qname, e.qtype), e.now)
		}
		eng.close()
		sortSnaps(snaps)
		return snaps
	}
	serial := run(engineMatrix[0])
	for _, shape := range engineMatrix[1:] {
		name := fmt.Sprintf("s%dw%d", shape.shards, shape.workers)
		if shape.admitterN > 0 {
			name += "-admit" // the filters are built and, the stream being eviction-free, never asked
		}
		t.Run(name, func(t *testing.T) {
			requireSnapsEqual(t, serial, run(shape))
		})
	}
}

// TestShardedZeroCopyPath drives IngestShared with borrowed buffers and
// checks the output still matches the serial pipeline.
func TestShardedZeroCopyPath(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SkipFreshObjects = false
	events := shardedTestEvents(3000)

	var serial []*tsv.Snapshot
	sp := New(cfg, shardedTestAggs(), func(s *tsv.Snapshot) { serial = append(serial, s) })
	for _, e := range events {
		sp.Ingest(sum(e.resolver, e.ns, e.qname, e.qtype), e.now)
	}
	sp.Flush()
	sortSnaps(serial)

	var sharded []*tsv.Snapshot
	eng := NewSharded(ShardedConfig{Config: cfg, Shards: 4, Workers: 2, BatchSize: 32},
		shardedTestAggs(), func(s *tsv.Snapshot) { sharded = append(sharded, s) })
	for _, e := range events {
		buf := eng.Borrow()
		buf.Summary = *sum(e.resolver, e.ns, e.qname, e.qtype)
		eng.IngestShared(buf, e.now)
	}
	eng.Close()
	sortSnaps(sharded)
	requireSnapsEqual(t, serial, sharded)
}

// TestShardedConcurrentProducers hammers Ingest from several goroutines;
// run under -race. Snapshot contents depend on interleaving, so only
// aggregate invariants are checked.
func TestShardedConcurrentProducers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SkipFreshObjects = false
	var mu sync.Mutex
	var snaps []*tsv.Snapshot
	eng := NewSharded(ShardedConfig{Config: cfg, Shards: 4, Workers: 2, BatchSize: 16},
		shardedTestAggs(), func(s *tsv.Snapshot) {
			mu.Lock()
			snaps = append(snaps, s)
			mu.Unlock()
		})

	const producers = 4
	const perProducer = 2000
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			s := sum("192.0.2.1", "198.51.100.1", "x.example.com.", dnswire.TypeA)
			for i := 0; i < perProducer; i++ {
				s.QName = fmt.Sprintf("h%d.example%d.com.", p, i%30)
				eng.Ingest(s, float64(i)*0.01)
			}
		}(p)
	}
	wg.Wait()
	if got := eng.Stats().Ingested; got != producers*perProducer {
		t.Fatalf("Stats().Ingested = %d, want %d", got, producers*perProducer)
	}
	eng.Close()
	var qnameRows int
	for _, s := range snaps {
		if s.Aggregation == "qname" {
			qnameRows += len(s.Rows)
			var hits float64
			for _, r := range s.Rows {
				hits += r.Values[0]
			}
			if uint64(hits) != s.TotalAfter {
				t.Fatalf("qname@%d: row hits %v != TotalAfter %d", s.Start, hits, s.TotalAfter)
			}
		}
	}
	if qnameRows == 0 {
		t.Fatal("no qname rows despite 8000 ingests")
	}
}

// TestShardedCallerMayReuseSummary checks Ingest deep-copies into the
// pool: mutating the summary after the call must not corrupt output.
func TestShardedCallerMayReuseSummary(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SkipFreshObjects = false
	var snaps []*tsv.Snapshot
	eng := NewSharded(ShardedConfig{Config: cfg, Shards: 2, Workers: 2, BatchSize: 8},
		[]Aggregation{{Name: "qname", K: 50, Key: QNameKey, NoAdmitter: true}},
		func(s *tsv.Snapshot) { snaps = append(snaps, s) })
	s := sum("192.0.2.1", "198.51.100.1", "reused.example.com.", dnswire.TypeA)
	for i := 0; i < 1000; i++ {
		eng.Ingest(s, float64(i)*0.1)
		s.QName = "reused.example.com."
		s.AnswerTTLs = append(s.AnswerTTLs[:0], uint32(i))
	}
	eng.Close()
	var rows int
	for _, snap := range snaps {
		rows += len(snap.Rows)
		for _, r := range snap.Rows {
			if r.Key != "reused.example.com." {
				t.Fatalf("corrupted key %q", r.Key)
			}
		}
	}
	if rows == 0 {
		t.Fatal("no rows despite 1000 ingests")
	}
}

// TestShardedCloseIdempotent: ending the stream is idempotent on both
// engines. The open window is closed once — a second Flush or Close
// delivers nothing, where the pipeline's used to publish the window
// again, empty, over the first — and an Ingest after it is a no-op that
// re-opens no window.
func TestShardedCloseIdempotent(t *testing.T) {
	aggs := []Aggregation{{Name: "srvip", K: 10, Key: SrvIPKey, NoAdmitter: true}}
	cfg := DefaultConfig()
	cfg.SkipFreshObjects = false
	for _, shape := range []engineShape{engineMatrix[0], engineMatrix[3]} {
		t.Run(shape.name, func(t *testing.T) {
			var snaps []*tsv.Snapshot
			eng := shape.build(cfg, aggs, func(s *tsv.Snapshot) { snaps = append(snaps, s) })
			eng.ingest(sum("192.0.2.1", "198.51.100.1", "a.example.com.", dnswire.TypeA), 5)
			eng.close()
			eng.close() // must not panic, deadlock or deliver
			eng.ingest(sum("192.0.2.1", "198.51.100.2", "b.example.com.", dnswire.TypeA), 6)
			eng.ingest(sum("192.0.2.1", "198.51.100.2", "b.example.com.", dnswire.TypeA), 70)
			eng.close()
			if len(snaps) != 1 {
				t.Fatalf("%d snapshots after ending the stream three times, want the one of window 0", len(snaps))
			}
			if s := snaps[0]; s.Start != 0 || s.TotalBefore != 1 || len(s.Rows) != 1 {
				t.Fatalf("window %d holds %d rows of %d transactions, want window 0 with its one", s.Start, len(s.Rows), s.TotalBefore)
			}
			if es := eng.stats(); es.Ingested != 1 || es.Accepted != 1 {
				t.Errorf("Stats() = %+v, want the one summary ingested before the end", es)
			}
		})
	}
	// A borrowed buffer handed to a closed engine is released, not ingested.
	eng := NewSharded(ShardedConfig{Config: cfg}, aggs, nil)
	eng.Close()
	eng.IngestShared(eng.Borrow(), 3)
	if es := eng.Stats(); es.Ingested != 0 {
		t.Errorf("Stats() = %+v after IngestShared on a closed engine", es)
	}
}

// TestShardedShardCapacity pins the sizing rule: even K split plus slack.
func TestShardedShardCapacity(t *testing.T) {
	for _, tc := range []struct{ k, shards, want int }{
		{100, 1, 128},       // 100 + 12 + 16
		{100, 4, 44},        // 25 + 3 + 16
		{7, 4, 18},          // 2 + 0 + 16
		{100_000, 8, 14078}, // 12500 + 1562 + 16 — headroom over K/S
	} {
		if got := shardCapacity(tc.k, tc.shards); got != tc.want {
			t.Errorf("shardCapacity(%d, %d) = %d, want %d", tc.k, tc.shards, got, tc.want)
		}
	}
}

// TestBatchOwnsItsSummaries: a borrowed buffer has one owner at a time
// and goes back to the pool once, whichever way it leaves the caller —
// discarded, staged in a batch the workers fold, or staged in a batch
// the overload policy sheds. N buffers are borrowed, sent down the three
// ways, and read back from the pool after Close: no buffer twice, none
// that was not borrowed, and all N where the pool keeps what it is given
// (under the race detector it drops some on purpose).
func TestBatchOwnsItsSummaries(t *testing.T) {
	// One P, so that what the workers put this goroutine can get, and no
	// collection to empty the pool in between.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	keeps := true
	var probe sync.Pool
	for i := 0; i < 64 && keeps; i++ {
		x := new(int)
		probe.Put(x)
		keeps = probe.Get() == any(x)
	}

	cfg := DefaultConfig()
	gate := make(chan struct{})
	cfg.ChaosHook = func(*sie.Summary) { <-gate } // workers stall, queues fill, batches are shed
	eng := NewSharded(ShardedConfig{Config: cfg, Shards: 2, Workers: 2, BatchSize: 4, QueueLen: 1, Overload: Shed},
		[]Aggregation{{Name: "qname", K: 50, Key: QNameKey, NoAdmitter: true}}, nil)
	const n = 48
	borrowed := map[*sie.Shared]int{}
	var bufs []*sie.Shared
	for len(bufs) < n {
		buf := eng.Borrow()
		buf.Summary = *sum("192.0.2.1", "198.51.100.1", "a.example.com.", dnswire.TypeA)
		borrowed[buf] = 0
		bufs = append(bufs, buf)
	}
	if len(borrowed) != n {
		t.Fatalf("%d borrows handed out %d buffers", n, len(borrowed))
	}
	for i, buf := range bufs {
		if i%3 == 0 {
			eng.Discard(buf)
		} else {
			eng.IngestShared(buf, float64(i))
		}
	}
	close(gate)
	eng.Close()
	if es := eng.Stats(); es.Shed == 0 || es.Accepted == 0 || es.Accepted+es.Shed != n-n/3 {
		t.Fatalf("Stats() = %+v, want %d summaries, some folded and some shed", es, n-n/3)
	}

	eng.pool.New = nil // an empty pool answers nil
	back := 0
	for x := eng.pool.Get(); x != nil; x = eng.pool.Get() {
		buf := x.(*sie.Shared)
		seen, ok := borrowed[buf]
		if !ok || seen != 0 {
			t.Fatalf("the pool held a buffer that was borrowed %v and read back %d times before", ok, seen)
		}
		borrowed[buf]++
		back++
	}
	if keeps && back != n {
		t.Errorf("%d of %d buffers came back to the pool", back, n)
	}
}
