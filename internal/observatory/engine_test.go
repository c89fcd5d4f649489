package observatory

import (
	"net/netip"
	"runtime"
	"slices"
	"testing"

	"dnsobservatory/internal/dnswire"
	"dnsobservatory/internal/sie"
	"dnsobservatory/internal/spacesaving"
	"dnsobservatory/internal/tsv"
)

// engineShape is one shape of the Engine: inline (no shards), or shards
// dealt to worker goroutines. With
// admitterN set, engine and oracle run every aggregation the test hands
// them behind a filter of that many keys.
type engineShape struct {
	name            string
	shards, workers int
	admitterN       int
}

// engineMatrix is every configuration the engine-equivalence tests run:
// the inline shape, then one shard, four on one worker (the merger is
// handed one part of more than K rows), four on two, one each, and a
// worker count that does not divide the shards. The rows keep the names
// they had in the tests that grew into this table. The last row is what
// production runs and the others leave out: admitters on, at 128 keys a
// filter, so that under a test whose capacities lie below its key
// population (TestCloseWindowMatchesFullScan, TestDeferredFoldMatchesEager)
// a filter decides every eviction and its false positives, which are the
// seed's, decide some of them: seed one shard of the engine otherwise
// and those tests fail on this row.
var engineMatrix = []engineShape{
	{name: "serial"},
	{name: "s1w1", shards: 1, workers: 1},
	{name: "sharded-w1", shards: 4, workers: 1},
	{name: "sharded-w2", shards: 4, workers: 2},
	{name: "sharded-w4", shards: 4, workers: 4},
	{name: "s7w3", shards: 7, workers: 3},
	{name: "admit-s4w2", shards: 4, workers: 2, admitterN: 128},
}

func (sh engineShape) inline() bool { return sh.shards == 0 }

// guarded is cfg and aggs as this shape runs them: unchanged, or with
// the admitters on and sized.
func (sh engineShape) guarded(cfg Config, aggs []Aggregation) (Config, []Aggregation) {
	if sh.admitterN == 0 {
		return cfg, aggs
	}
	cfg.AdmitterN = sh.admitterN
	aggs = slices.Clone(aggs)
	for i := range aggs {
		aggs[i].NoAdmitter = false
	}
	return cfg, aggs
}

// oracle is the reference engine that states this shape's window logic:
// one shard of capacity K inline, S of the shard capacity otherwise.
func (sh engineShape) oracle(cfg Config, aggs []Aggregation) *refEngine {
	cfg, aggs = sh.guarded(cfg, aggs)
	if sh.inline() {
		return newRefEngine(cfg, aggs, 1, func(k int) int { return k })
	}
	return newRefEngine(cfg, aggs, sh.shards, func(k int) int { return shardCapacity(k, sh.shards) })
}

// build constructs the engine of this shape.
func (sh engineShape) build(cfg Config, aggs []Aggregation, onSnapshot func(*tsv.Snapshot)) *Engine {
	cfg, aggs = sh.guarded(cfg, aggs)
	if sh.inline() {
		return New(cfg, aggs, onSnapshot)
	}
	return NewSharded(ShardedConfig{Config: cfg, Shards: sh.shards, Workers: sh.workers, BatchSize: 64}, aggs, onSnapshot)
}

// poisonHook is the chaos hook of the matrix tests: a worker panics on a
// "poison." name. Only worker engines run a hook, so it returns cfg
// unchanged, and false, for the inline shape.
func (sh engineShape) poisonHook(cfg Config) (Config, bool) {
	if sh.inline() {
		return cfg, false
	}
	cfg.ChaosHook = func(s *sie.Summary) {
		if poisoned(s) {
			panic("injected mid-fold")
		}
	}
	return cfg, true
}

// inlineStates is the white-box view of the inline shape: its one
// worker, and that worker's states, one per aggregation.
func (e *Engine) inlineStates() (*worker, []*aggState) {
	w := e.workers[0]
	states := make([]*aggState, len(w.states))
	for a := range w.states {
		states[a] = w.states[a][0]
	}
	return w, states
}

// copySummary deep-copies the slices that the Summarizer reuses.
func copySummary(sum *sie.Summary) sie.Summary {
	out := *sum
	out.V4Addrs = append([]netip.Addr(nil), sum.V4Addrs...)
	out.V6Addrs = append([]netip.Addr(nil), sum.V6Addrs...)
	out.V4Strs = append([]string(nil), sum.V4Strs...)
	out.V6Strs = append([]string(nil), sum.V6Strs...)
	out.V4Hashes = append([]uint64(nil), sum.V4Hashes...)
	out.V6Hashes = append([]uint64(nil), sum.V6Hashes...)
	out.AnswerTTLs = append([]uint32(nil), sum.AnswerTTLs...)
	out.NSTTLs = append([]uint32(nil), sum.NSTTLs...)
	out.NSNames = append([]string(nil), sum.NSNames...)
	return out
}

// TestPipelineIsSynchronous: the inline shape starts no goroutine, and
// every snapshot of a window has been delivered when the Ingest that
// crosses its boundary returns — the final ones when Close returns. dnsbench's
// dump spans and dnsobs's per-snapshot WAL checkpoint depend on it.
func TestPipelineIsSynchronous(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SkipFreshObjects = false
	cfg.Detect = detectTestConfig()
	const perWindow = 2 + 2 // two aggregations, two detect snapshots
	before := runtime.NumGoroutine()
	delivered := 0
	p := New(cfg, statsAggs(), func(*tsv.Snapshot) { delivered++ })
	s := sum("192.0.2.1", "198.51.100.1", "a.example.com.", dnswire.TypeA)
	p.Ingest(s, 5)
	p.Ingest(s, 59)
	if delivered != 0 {
		t.Fatalf("%d snapshots delivered inside the first window", delivered)
	}
	p.Ingest(s, 60)
	if delivered != perWindow {
		t.Fatalf("%d snapshots delivered when the crossing Ingest returned, want %d", delivered, perWindow)
	}
	p.Ingest(s, 245) // closes [60,120) and two empty windows
	if delivered != 4*perWindow {
		t.Fatalf("%d snapshots delivered after crossing three boundaries at once, want %d", delivered, 4*perWindow)
	}
	if n := runtime.NumGoroutine(); n != before {
		t.Errorf("%d goroutines before New, %d after four windows", before, n)
	}
	p.Close()
	if delivered != 5*perWindow {
		t.Fatalf("%d snapshots delivered when Close returned, want %d", delivered, 5*perWindow)
	}
}

// TestSnapshotCallbackPanicIsRecovered: a consumer that panics costs its
// snapshot and nothing else. The engine keeps ingesting, delivers the
// next window, ends the stream, and reports the panic in Stats — on the
// merger goroutine of the worker shape, and on the caller's goroutine
// in the inline shape, which it used to unwind.
func TestSnapshotCallbackPanicIsRecovered(t *testing.T) {
	for _, shape := range []engineShape{engineMatrix[0], engineMatrix[3]} {
		t.Run(shape.name, func(t *testing.T) {
			var starts []int64
			eng := shape.build(DefaultConfig(), statsAggs()[:1], func(s *tsv.Snapshot) {
				starts = append(starts, s.Start)
				if s.Start == 0 {
					panic("consumer failed")
				}
			})
			s := sum("192.0.2.1", "198.51.100.1", "a.example.com.", dnswire.TypeA)
			for _, now := range []float64{1, 61, 62, 121} {
				eng.Ingest(s, now)
			}
			eng.Close()
			if len(starts) != 3 || starts[0] != 0 || starts[1] != 60 || starts[2] != 120 {
				t.Fatalf("windows delivered: %v, want 0, 60 and 120", starts)
			}
			if es := eng.Stats(); es.Panics != 1 || es.Quarantined != 0 || es.Accepted != 4 {
				t.Errorf("Stats() = %+v, want 4 accepted, 1 panic, nothing quarantined", es)
			}
		})
	}
}

// TestSameStreamSameSnapshots: an engine is a function of its input. The
// churn stream through two engines built one after the other, behind
// admitters small enough that every window admits keys on false
// positives, leaves the same snapshots value for value, inline and
// sharded. While a filter drew its hash seed at random the two runs
// admitted different keys.
func TestSameStreamSameSnapshots(t *testing.T) {
	events := churnEvents()
	for _, shape := range []engineShape{
		{name: "serial", admitterN: 256},
		{name: "s4w2", shards: 4, workers: 2, admitterN: 256},
	} {
		t.Run(shape.name, func(t *testing.T) {
			run := func() (snaps []*tsv.Snapshot, refused uint64) {
				eng := shape.build(DefaultConfig(), churnAggs(), func(s *tsv.Snapshot) { snaps = append(snaps, s) })
				for _, e := range events {
					eng.Ingest(sum(e.resolver, e.ns, e.qname, e.qtype), e.now)
				}
				eng.Close()
				for _, c := range eng.caches("qname") {
					refused += c.Dropped()
				}
				sortSnaps(snaps)
				return snaps, refused
			}
			first, refused := run()
			second, _ := run()
			if refused == 0 {
				t.Fatal("the filters refused nothing")
			}
			requireSnapsEqual(t, first, second)
		})
	}
}

// caches is the white-box view of an aggregation's Space-Saving caches,
// one per shard in shard order, or nil if the engine has no such
// aggregation. Read it only while no ingest is in flight (on the sharded
// engine: after Close).
func (c *core) caches(name string) []*spacesaving.Cache {
	a := slices.IndexFunc(c.aggs, func(agg Aggregation) bool { return agg.Name == name })
	if a < 0 {
		return nil
	}
	caches := make([]*spacesaving.Cache, c.shards)
	for _, w := range c.workers {
		for l, st := range w.states[a] {
			caches[l*len(c.workers)+w.id] = st.cache
		}
	}
	return caches
}
