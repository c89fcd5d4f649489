package dnsobservatory_test

// The benchmark harness: one benchmark per table and figure of the
// paper's evaluation (each regenerates the artifact end to end from
// synthetic traffic), the engine and store micro-benchmarks cmd/dnsbench
// has no drive for, and ablations for the design choices called out in
// DESIGN.md. The per-layer hot-path costs (summarize, unpack, observe,
// HLL add, serial and detect ingest) are cmd/dnsbench's isolated drives:
// go run ./cmd/dnsbench -workload replay-serial -trace 1.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The per-experiment benchmarks use a reduced scenario scale so a full
// sweep stays in minutes; cmd/experiments regenerates the same artifacts
// at full laptop scale.

import (
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"runtime"
	"testing"

	"dnsobservatory/internal/bloom"
	"dnsobservatory/internal/experiments"
	"dnsobservatory/internal/features"
	"dnsobservatory/internal/hll"
	"dnsobservatory/internal/metrics"
	"dnsobservatory/internal/observatory"
	"dnsobservatory/internal/sie"
	"dnsobservatory/internal/simnet"
	"dnsobservatory/internal/spacesaving"
	"dnsobservatory/internal/tsv"
)

// benchCtx builds a small-scale experiment context per benchmark.
func benchCtx() *experiments.Context {
	return experiments.NewContext(experiments.Options{Scale: 0.2, Seed: 7})
}

// runExperiment measures one full regeneration of a paper artifact.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e := experiments.Find(id)
	if e == nil {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// A fresh context per iteration: the run is the artifact.
		if err := e.Run(benchCtx(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2TrafficDistributions(b *testing.B) { runExperiment(b, "fig2") }
func BenchmarkTable1ASOrganizations(b *testing.B)    { runExperiment(b, "tab1") }
func BenchmarkTable2QTypes(b *testing.B)             { runExperiment(b, "tab2") }
func BenchmarkFig3ResponseDelays(b *testing.B)       { runExperiment(b, "fig3") }
func BenchmarkTable3QNameMinimization(b *testing.B)  { runExperiment(b, "tab3") }
func BenchmarkFig4Representativeness(b *testing.B)   { runExperiment(b, "fig4") }
func BenchmarkFig5ServersOverTime(b *testing.B)      { runExperiment(b, "fig5") }
func BenchmarkFig6HilbertHeatmap(b *testing.B)       { runExperiment(b, "fig6") }
func BenchmarkFig7TTLSlash(b *testing.B)             { runExperiment(b, "fig7") }
func BenchmarkFig8TTLvsTraffic(b *testing.B)         { runExperiment(b, "fig8") }
func BenchmarkTable4TTLChangeClasses(b *testing.B)   { runExperiment(b, "tab4") }
func BenchmarkFig9NegativeCaching(b *testing.B)      { runExperiment(b, "fig9") }
func BenchmarkIPv6Enablement(b *testing.B)           { runExperiment(b, "v6on") }

// ---- hot-path micro-benchmarks ----

// engineBenchSummaries prebuilds a deep-copied summary corpus shared
// by the engine-ingest benchmark variants.
func engineBenchSummaries() []sie.Summary {
	cfg := simnet.DefaultConfig()
	cfg.Duration = 30
	cfg.QPS = 2000
	sim := simnet.New(cfg)
	var sums []sie.Summary
	var s sie.Summarizer
	sim.Run(func(tx *sie.Transaction) {
		var sum sie.Summary
		if err := s.Summarize(tx, &sum); err == nil {
			sum.V4Addrs = append([]netip.Addr(nil), sum.V4Addrs...)
			sum.V6Addrs = append([]netip.Addr(nil), sum.V6Addrs...)
			sum.AnswerTTLs = append([]uint32(nil), sum.AnswerTTLs...)
			sum.NSTTLs = append([]uint32(nil), sum.NSTTLs...)
			sum.NSNames = append([]string(nil), sum.NSNames...)
			sums = append(sums, sum)
		}
	})
	return sums
}

// BenchmarkEngineIngest compares the two ways into the engine on the same
// 8-aggregation load: the serial Pipeline, and the key-hash-sharded
// engine with and without the copy into a pooled buffer. Run with
// -cpu 1,4 to see the scaling behaviour; docs/BENCH_HISTORY.md (PR 1)
// has the first baseline.
func BenchmarkEngineIngest(b *testing.B) {
	sums := engineBenchSummaries()
	cfg := observatory.DefaultConfig()
	b.Run("serial", func(b *testing.B) {
		pipe := observatory.New(cfg, observatory.StandardAggregations(0.01), nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pipe.Ingest(&sums[i%len(sums)], float64(i)/2000)
		}
	})
	b.Run("sharded", func(b *testing.B) {
		eng := observatory.NewSharded(observatory.ShardedConfig{Config: cfg},
			observatory.StandardAggregations(0.01), nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.Ingest(&sums[i%len(sums)], float64(i)/2000)
		}
		b.StopTimer()
		eng.Close()
	})
	b.Run("sharded-zerocopy", func(b *testing.B) {
		eng := observatory.NewSharded(observatory.ShardedConfig{Config: cfg},
			observatory.StandardAggregations(0.01), nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf := eng.Borrow()
			buf.CopyFrom(&sums[i%len(sums)])
			eng.IngestShared(buf, float64(i)/2000)
		}
		b.StopTimer()
		eng.Close()
	})
}

// snapshotBenchSets builds a corpus of feature sets populated with a
// heavy-tail mix of traffic: a few hot objects that see thousands of
// distinct values and a long tail of objects that see a handful — the
// shape of a real Top-k table.
func snapshotBenchSets(n int) []*features.Set {
	sums := engineBenchSummaries()
	sets := make([]*features.Set, n)
	for i := range sets {
		sets[i] = features.NewSet(features.Config{HLLPrecision: 10})
		obs := 3 // tail object: a few hits
		if i%100 == 0 {
			obs = 2000 // hot object: thousands
		}
		for j := 0; j < obs; j++ {
			sets[i].Observe(&sums[(i*131+j)%len(sums)])
		}
	}
	return sets
}

// BenchmarkSnapshotRowExtract measures per-row snapshot extraction —
// features.Set.Values, dominated by the 10 HLL Estimate calls per row.
// At every window dump this runs once per tracked object per
// aggregation (×K ×8).
func BenchmarkSnapshotRowExtract(b *testing.B) {
	sets := snapshotBenchSets(500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sets[i%len(sets)].Values(1.0)
	}
}

// BenchmarkFeatureSetBytes reports what a tracked object costs the
// engine, by what its window has seen of it: the live heap of a
// one-aggregation serial pipeline, per monitored key, when every key is
// idle (the cache entry and nothing else), when every key has taken
// three hits in the open window (a record block each), and when every
// key has taken thirteen (a feature set each, the blocks back in the
// engine's pool). Read with ReadMemStats after a collection; DESIGN.md
// "Feature state lifecycle" has the table.
func BenchmarkFeatureSetBytes(b *testing.B) {
	sums := engineBenchSummaries()
	const objects = 2000
	liveHeap := func() float64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}
	base := liveHeap()
	pipe := observatory.New(observatory.DefaultConfig(),
		[]observatory.Aggregation{{Name: "qname", K: objects, Key: observatory.QNameKey, NoAdmitter: true}}, nil)
	n := 0
	hit := func(key int, now float64) {
		sum := sums[n%len(sums)] // a copy: the corpus stays unkeyed and unhashed
		n++
		sum.QName = fmt.Sprintf("host%d.example.com.", key)
		pipe.Ingest(&sum, now)
	}
	// 50 new keys a window, so the pools end up sized for 50 objects and
	// not for the cache; then a window goes by with no traffic.
	const perWindow = 50
	for key := 0; key < objects; key++ {
		hit(key, float64(key/perWindow)*60)
	}
	now := float64(objects/perWindow+1) * 60
	hit(0, now)
	idle := liveHeap()
	for round := 0; round < 3; round++ {
		for key := 0; key < objects; key++ {
			hit(key, now+1)
		}
	}
	tail := liveHeap()
	for round := 0; round < 10; round++ {
		for key := 0; key < objects; key++ {
			hit(key, now+2)
		}
	}
	heavy := liveHeap()
	for i := 0; i < b.N; i++ {
		_ = pipe.Stats() // keep the engine live across the measurement
	}
	runtime.KeepAlive(sums) // the corpus must stay live between readings
	b.ReportMetric((idle-base)/objects, "idle-B/object")
	b.ReportMetric((tail-base)/objects, "tail-B/object")
	b.ReportMetric((heavy-base)/objects, "heavy-B/object")
	b.ReportMetric(0, "ns/op")
}

// BenchmarkCascade measures the full time-aggregation cascade: 3
// aggregations × 60 minutely files each, cascaded up to hourly. Setup
// (writing the minutely inputs) runs with the timer stopped.
func BenchmarkCascade(b *testing.B) {
	aggs := []string{"srvip", "esld", "qname"}
	mkSnap := func(agg string, start int64) *tsv.Snapshot {
		cols, kinds := []string{"hits", "qdots"}, []tsv.Kind{tsv.Counter, tsv.Gauge}
		s := &tsv.Snapshot{
			Aggregation: agg, Level: tsv.Minutely, Start: start,
			Columns: cols, Kinds: kinds, TotalBefore: 100, TotalAfter: 90, Windows: 1,
		}
		for r := 0; r < 200; r++ {
			s.Rows = append(s.Rows, tsv.Row{
				Key:    fmt.Sprintf("obj-%03d", r),
				Values: []float64{float64(200 - r), 2.5},
			})
		}
		return s
	}
	run := func(b *testing.B, parallelism int) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			store, err := tsv.NewStore(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			store.Parallelism = parallelism
			for _, agg := range aggs {
				for m := int64(0); m < 60; m++ {
					if err := store.Put(mkSnap(agg, m*60)); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StartTimer()
			if err := store.CascadeAll(aggs, 3600); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("serial", func(b *testing.B) { run(b, 1) })
	b.Run("pooled", func(b *testing.B) { run(b, 0) })
}

// BenchmarkMetricsRecord measures the instrumentation record path the
// ingest engines run per transaction: counter increment, gauge store,
// histogram observation. All three must stay alloc-free — the metrics
// layer rides on the hot path of every engine.
func BenchmarkMetricsRecord(b *testing.B) {
	reg := metrics.NewRegistry()
	c := reg.Counter("bench_events_total", "", "engine", "serial")
	g := reg.Gauge("bench_depth", "")
	h := reg.Histogram("bench_flush_seconds", "", metrics.DurationBuckets)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		g.Set(float64(i))
		h.Observe(float64(i%1000) / 4e5)
	}
}

// ---- ablations (design choices from DESIGN.md) ----

// BenchmarkAblationAdmission compares Space-Saving with and without the
// Bloom-filter eviction guard under a one-off-heavy stream: the guard
// trades one filter lookup for far fewer evictions.
func BenchmarkAblationAdmission(b *testing.B) {
	mkKeys := func() []string {
		rng := rand.New(rand.NewSource(2))
		keys := make([]string, 1<<16)
		for i := range keys {
			if rng.Float64() < 0.5 {
				keys[i] = fmt.Sprintf("heavy%03d", rng.Intn(200))
			} else {
				keys[i] = fmt.Sprintf("oneoff%09d", rng.Int31())
			}
		}
		return keys
	}
	b.Run("with-bloom", func(b *testing.B) {
		keys := mkKeys()
		c := spacesaving.New(1000, 60, bloom.New(1<<20, 0.01, 0))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Observe(keys[i%len(keys)], float64(i)/1000)
		}
	})
	b.Run("no-bloom", func(b *testing.B) {
		keys := mkKeys()
		c := spacesaving.New(1000, 60, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Observe(keys[i%len(keys)], float64(i)/1000)
		}
	})
}

// BenchmarkAblationHLLPrecision sweeps estimator precision: memory per
// object grows 2x per step while the relative error halves per 2 steps.
func BenchmarkAblationHLLPrecision(b *testing.B) {
	for _, p := range []uint8{10, 12, 14} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			s := hll.MustNew(p)
			keys := make([]string, 1<<12)
			for i := range keys {
				keys[i] = fmt.Sprintf("k%d", i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Add(keys[i%len(keys)])
			}
		})
	}
}

// BenchmarkAblationFreshSkip compares snapshot dumping with and without
// the §2.4 skip of objects that have not survived a full window.
func BenchmarkAblationFreshSkip(b *testing.B) {
	for _, skip := range []bool{true, false} {
		name := "skip-fresh"
		if !skip {
			name = "keep-fresh"
		}
		b.Run(name, func(b *testing.B) {
			simCfg := simnet.DefaultConfig()
			simCfg.Duration = 20
			simCfg.QPS = 1000
			sim := simnet.New(simCfg)
			var sums []sie.Summary
			var s sie.Summarizer
			sim.Run(func(tx *sie.Transaction) {
				var sum sie.Summary
				if err := s.Summarize(tx, &sum); err == nil {
					sum.V4Addrs, sum.V6Addrs = nil, nil
					sum.AnswerTTLs, sum.NSTTLs, sum.NSNames = nil, nil, nil
					sums = append(sums, sum)
				}
			})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg := observatory.DefaultConfig()
				cfg.SkipFreshObjects = skip
				pipe := observatory.New(cfg,
					[]observatory.Aggregation{{Name: "srvip", K: 1000, Key: observatory.SrvIPKey}}, nil)
				for j := range sums {
					pipe.Ingest(&sums[j], float64(j)/1000)
				}
				pipe.Flush()
			}
		})
	}
}
