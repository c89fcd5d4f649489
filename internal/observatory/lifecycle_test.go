package observatory

import (
	"fmt"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"dnsobservatory/internal/chaos"
	"dnsobservatory/internal/dnswire"
	"dnsobservatory/internal/features"
	"dnsobservatory/internal/metrics"
	"dnsobservatory/internal/sie"
	"dnsobservatory/internal/simnet"
	"dnsobservatory/internal/spacesaving"
	"dnsobservatory/internal/tsv"
)

// The feature-state lifecycle of ISSUE 19 (idle → records → set, and
// back to the pools at close or eviction): equivalence with the eager
// engine on real-shaped traffic, and the budgets that hold only while
// feature memory follows the window.

// made is how many feature sets and record blocks a state has ever
// allocated: what its pools hold plus what its entries hold. (After a
// close the entries hold nothing.)
func (st *aggState) made() (slabs, logs int) {
	slabs, logs = len(st.free), len(st.freeLogs)
	st.cache.Entries(func(e *spacesaving.Entry) {
		switch e.State.(type) {
		case *features.Set:
			slabs++
		case *obsLog:
			logs++
		}
	})
	return slabs, logs
}

// liveHeap is the heap in use after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

type timedSummary struct {
	sum sie.Summary
	now float64
}

// simnetSummaries runs the traffic generator through a fault injector
// and the summarizer, as dnsobs would see a damaged feed: corrupted,
// truncated, duplicated, reordered and back-dated transactions among
// the clean. The generator's answers all fit a record, so every 37th
// positive answer is fattened to eight addresses and TTLs, which none
// does.
func simnetSummaries(t *testing.T, duration float64) []timedSummary {
	t.Helper()
	cfg := simnet.DefaultConfig()
	cfg.Duration, cfg.QPS, cfg.Seed = duration, 300, 19
	inj := chaos.New(chaos.Uniform(0.02, 19))
	var summarizer sie.Summarizer
	summarizer.KeepUnparsableResponses = true
	var out []timedSummary
	var s sie.Summary
	emit := inj.Transactions(func(tx *sie.Transaction) {
		if tx.QueryTime.IsZero() || tx.QueryTime.Before(cfg.Start) || summarizer.Summarize(tx, &s) != nil {
			return
		}
		ts := timedSummary{copySummary(&s), tx.QueryTime.Sub(cfg.Start).Seconds()}
		if ts.sum.OKData() && len(out)%37 == 0 {
			for len(ts.sum.AnswerTTLs) < 8 {
				n := byte(len(ts.sum.AnswerTTLs))
				ts.sum.V4Addrs = append(ts.sum.V4Addrs, netip.AddrFrom4([4]byte{203, 0, 113, n}))
				ts.sum.AnswerTTLs = append(ts.sum.AnswerTTLs, 300+uint32(n))
			}
		}
		out = append(out, ts)
	})
	simnet.New(cfg).Run(emit)
	inj.Flush()
	if st := inj.Stats(); st.Corrupted == 0 || st.Truncated == 0 || st.BackTime == 0 {
		t.Fatalf("the injector left the stream clean: %+v", st)
	}
	return out
}

// lifecycleAggs are the eight standard datasets at capacities under the
// generator's key universe, so the tail of every window is admitted by
// eviction: of every newcomer as written here, and of those a filter
// lets through under the matrix's admitter row.
func lifecycleAggs() []Aggregation {
	return []Aggregation{
		{Name: "srvip", K: 300, Key: SrvIPKey, NoAdmitter: true},
		{Name: "etld", K: 40, Key: ETLDKeyFunc(nil), NoAdmitter: true},
		{Name: "esld", K: 400, Key: ESLDKeyFunc(nil), NoAdmitter: true},
		{Name: "qname", K: 500, Key: QNameKey, NoAdmitter: true},
		{Name: "qtype", K: 64, Key: QTypeKey, NoAdmitter: true},
		{Name: "rcode", K: 24, Key: RCodeKey, NoAdmitter: true},
		{Name: "aafqdn", K: 200, Key: AAFQDNKey, NoAdmitter: true},
		{Name: "srcsrv", K: 300, Key: SrcSrvKey, KeyBytes: SrcSrvKeyBytes, NoAdmitter: true},
	}
}

// TestDeferredFoldMatchesEager: over generated traffic, faults included,
// the engines report what the eager engine reports, row for row — with
// objects that never leave their records, objects that cross to a set in
// mid-window, summaries a record refuses, and objects evicted while
// they hold records or a set.
func TestDeferredFoldMatchesEager(t *testing.T) {
	duration := 400.0
	if testing.Short() {
		duration = 150
	}
	stream := simnetSummaries(t, duration)
	cfg := DefaultConfig()
	// Two tracked TTLs per object, the first two it sees: the order in
	// which an object's transactions reach its set then shows in the rows.
	cfg.Features.TTLTracked = 2

	t.Run("serial", func(t *testing.T) {
		shape := engineMatrix[0]
		ref := shape.oracle(cfg, lifecycleAggs())
		mcfg := cfg
		mcfg.Metrics = metrics.NewRegistry()
		var got []*tsv.Snapshot
		eng := shape.build(mcfg, lifecycleAggs(), func(s *tsv.Snapshot) { got = append(got, s) })
		var evictedLogs, evictedSets, refused, closedOnRecords, closedOnSets int
		w, states := eng.inlineStates()
		for _, st := range states {
			recycle := st.cache.OnEvictState
			st.cache.OnEvictState = func(state any) {
				if _, ok := state.(*obsLog); ok {
					evictedLogs++
				} else {
					evictedSets++
				}
				recycle(state)
			}
		}
		var probe features.Obs
		windowStart := -1.0
		for i := range stream {
			ts := &stream[i]
			if w.started && w.windowStart != windowStart {
				windowStart = w.windowStart
				active, slabs := int(mcfg.Metrics.Sum(MetricTopkActive)), int(mcfg.Metrics.Sum(MetricTopkSlabs))
				closedOnSets += slabs
				closedOnRecords += active - slabs
			}
			ref.ingest(&ts.sum, ts.now, false)
			eng.Ingest(&ts.sum, ts.now)
			if !probe.From(&ts.sum) {
				refused++
			}
		}
		ref.dump()
		eng.Close()
		if evictedLogs == 0 || evictedSets == 0 || refused == 0 || closedOnRecords == 0 || closedOnSets == 0 {
			t.Fatalf("stream too tame: %d record blocks and %d sets evicted, %d summaries refused, %d objects closed on records, %d on a set",
				evictedLogs, evictedSets, refused, closedOnRecords, closedOnSets)
		}
		sortSnaps(ref.out)
		sortSnaps(got)
		requireSnapsEqual(t, ref.out, got)
	})

	t.Run("sharded", func(t *testing.T) {
		for _, shape := range engineMatrix[1:] {
			t.Run(shape.name, func(t *testing.T) {
				ref := shape.oracle(cfg, lifecycleAggs())
				var got []*tsv.Snapshot
				eng := shape.build(cfg, lifecycleAggs(), func(s *tsv.Snapshot) { got = append(got, s) })
				for i := range stream {
					ts := &stream[i]
					ref.ingest(&ts.sum, ts.now, false)
					eng.Ingest(&ts.sum, ts.now)
				}
				ref.dump()
				eng.Close()
				sortSnaps(ref.out)
				sortSnaps(got)
				requireSnapsEqual(t, ref.out, got)
			})
		}
	})
}

// idleKey names the i-th of the keys an idle cache is filled with.
func idleKey(i int) string { return fmt.Sprintf("idle%d.example.", i) }

// filledState is a qname state whose cache monitors k idle keys.
func filledState(cfg *Config, k int) *aggState {
	st := newAggState(Aggregation{Name: "qname", K: k, Key: QNameKey, NoAdmitter: true}, cfg, 0, k)
	for i := 0; i < k; i++ {
		st.cache.Observe(idleKey(i), 1)
	}
	return st
}

// hit folds n transactions for the i-th idle key at stream time now, in
// the window now falls in.
func (st *aggState) hit(cfg *Config, i, n int, now float64) {
	s := sum("192.0.2.1", "198.51.100.1", idleKey(i), dnswire.TypeA)
	s.PrecomputeHashes(cfg.Features.Suffixes)
	for ; n > 0; n-- {
		st.fold(st.cache.Observe(s.QName, now), s, now-mod(now, cfg.WindowSec), cfg)
	}
}

// TestIdleObjectsHoldNoState: feature memory is the window's, not the
// cache's. 50 of the monitored keys are active in a window — another 50
// each time, 8 of them past what a record block holds — and after 20
// windows the state has made 8 sets and no more than 50 blocks, and its
// live heap has grown by those and no more, whether it monitors a
// thousand keys or a hundred thousand.
func TestIdleObjectsHoldNoState(t *testing.T) {
	cfg := DefaultConfig()
	cfg.withDefaults()
	const active, heavy, windows = 50, 8, 20
	for _, k := range []int{1000, 100_000} {
		st := filledState(&cfg, k)
		before := liveHeap()
		for w := 0; w < windows; w++ {
			start := 60 * float64(w+1)
			for i := 0; i < active; i++ {
				n := 1 + i%foldDefer // a tail object: what a record block holds, or less
				if i < heavy {
					n = 10
				}
				st.hit(&cfg, (w*active+i)%k, n, start+1)
			}
			var part shardPart
			st.closeWindow(&part, &cfg, start, start+60)
			if part.active != active || part.slabs != heavy || len(part.rows) != active {
				t.Fatalf("K=%d window %d: %d active, %d on a set, %d rows; want %d, %d, %d", k, w, part.active, part.slabs, len(part.rows), active, heavy, active)
			}
		}
		slabs, logs := st.made()
		if slabs != heavy || logs == 0 || logs > active || len(st.free) != slabs || len(st.freeLogs) != logs {
			t.Errorf("K=%d: made %d sets and %d record blocks (%d and %d pooled) for %d active keys a window, %d of them heavy",
				k, slabs, logs, len(st.free), len(st.freeLogs), active, heavy)
		}
		// 8 sets of ~5 KB, 50 blocks of 416 B and the scratch set are
		// ~65 KB; a set per object ever touched would be 5 MB.
		if grown := int64(liveHeap()) - int64(before); grown > 128<<10 {
			t.Errorf("K=%d: the live heap grew by %d KB over %d windows", k, grown>>10, windows)
		}
		runtime.KeepAlive(st)
	}
}

// TestFoldAllocatesNothingWhenPooled: once a window has filled the
// pools, the first fold of an idle object (a record block from the pool)
// and the fold that promotes one (a set from the pool, the block back)
// allocate nothing.
func TestFoldAllocatesNothingWhenPooled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.withDefaults()
	const runs = 40
	st := filledState(&cfg, 1000)
	// A window that leaves runs+1 sets and runs+1 blocks pooled: every
	// object takes its block before the first gives one back.
	for _, n := range []int{1, foldDefer} {
		for i := 0; i <= runs; i++ {
			st.hit(&cfg, i, n, 61)
		}
	}
	var part shardPart
	st.closeWindow(&part, &cfg, 60, 120)
	if slabs, logs := st.made(); slabs != runs+1 || logs != runs+1 {
		t.Fatalf("the warm-up window pooled %d sets and %d record blocks, want %d each", slabs, logs, runs+1)
	}

	sums := make([]*sie.Summary, runs+1)
	for i := range sums {
		sums[i] = sum("192.0.2.1", "198.51.100.1", idleKey(i), dnswire.TypeA)
		sums[i].PrecomputeHashes(cfg.Features.Suffixes)
	}
	i := 0
	if allocs := testing.AllocsPerRun(runs, func() { st.fold(st.cache.Observe(sums[i].QName, 121), sums[i], 120, &cfg); i++ }); allocs != 0 {
		t.Errorf("the first fold of an idle object allocates %.1f objects", allocs)
	}
	for _, s := range sums {
		for n := 1; n < foldDefer; n++ {
			st.fold(st.cache.Observe(s.QName, 122), s, 120, &cfg)
		}
	}
	if slabs, _ := st.made(); len(st.free) != slabs {
		t.Fatalf("%d of %d sets are out before any object has outgrown its records", slabs-len(st.free), slabs)
	}
	i = 0
	if allocs := testing.AllocsPerRun(runs, func() { st.fold(st.cache.Observe(sums[i].QName, 123), sums[i], 120, &cfg); i++ }); allocs != 0 {
		t.Errorf("a promotion allocates %.1f objects", allocs)
	}
	if len(st.free) != 0 || len(st.freeLogs) != runs+1 {
		t.Errorf("after %d promotions %d sets and %d record blocks are pooled, want 0 and %d", runs+1, len(st.free), len(st.freeLogs), runs+1)
	}
}

// churnWindow feeds one window of churning traffic: 12 hot keys with
// tens of hits each, 60 names seen two to five times and 200 seen once,
// the names new in every window, so a cache of a few dozen entries
// evicts and re-admits all through it.
func churnWindow(w int, ingest func(*sie.Summary, float64)) {
	start := 60 * float64(w)
	n := 0
	emit := func(ns int, qname string) {
		n++
		ingest(sum("192.0.2.7", fmt.Sprintf("198.51.100.%d", ns%40+1), qname, dnswire.TypeA), start+float64(n)*0.05)
	}
	for round := 0; round < 5; round++ {
		for h := 0; h < 12; h++ {
			for r := 0; r < 4; r++ {
				emit(h, fmt.Sprintf("www.hot%d.example.", h))
			}
		}
		for i := 0; i < 60; i++ {
			if round < 2+i%4 {
				emit(i, fmt.Sprintf("w%d-%d.warm.example.", w, i))
			}
		}
		for i := 0; i < 40; i++ {
			emit(i, fmt.Sprintf("w%d-%d-%d.cold.example.", w, round, i))
		}
	}
}

// TestStateBoundedUnderChurn: state is bounded by the cache, never by
// how much traffic or how many keys have gone by (a first slice of
// ROADMAP 5d). Hundreds of windows of new keys through both engines:
// past a warm-up the engines stop making feature sets and record
// blocks, the live heap stays where it was, and no goroutine is added.
func TestStateBoundedUnderChurn(t *testing.T) {
	windows, warm := 300, 20
	if testing.Short() {
		windows, warm = 30, 10
	}
	// These engines hold well under a megabyte, so the heap's 10 % comes
	// with a fixed allowance for what is in flight when it is read (pooled
	// batches and summaries, a window's rows); a record block leaked per
	// object and window would be 100 KB a window.
	const heapSlack = 256 << 10
	requireFlat := func(t *testing.T, what string, warm, end, slack uint64) {
		t.Helper()
		if end > warm+warm/10+slack {
			t.Errorf("%s grew from %d after the warm-up to %d", what, warm, end)
		}
	}

	// What an engine has made by the end of the warm-up is, to a few
	// blocks, all it ever makes — a pool grows only when every block in it
	// is out, so never past one set and one block per cache entry.
	requireSaturated := func(t *testing.T, warm, end, entries int) {
		t.Helper()
		if end > warm+warm/50 || end > 2*entries {
			t.Errorf("%d feature sets and record blocks made by the end of the warm-up, %d by the end of the run; the caches hold %d entries",
				warm, end, entries)
		}
	}

	t.Run("serial", func(t *testing.T) {
		p := New(DefaultConfig(), churnAggs(), func(*tsv.Snapshot) {})
		_, states := p.inlineStates()
		made := func() (n int) {
			for _, st := range states {
				slabs, logs := st.made()
				n += slabs + logs
			}
			return n
		}
		var madeWarm, goWarm int
		var heapWarm uint64
		for w := 0; w < windows; w++ {
			if w == warm {
				madeWarm, heapWarm, goWarm = made(), liveHeap(), runtime.NumGoroutine()
			}
			churnWindow(w, p.Ingest)
		}
		if ev := p.caches("qname")[0].Evictions(); ev < uint64(windows)*200 {
			t.Fatalf("stream too tame: %d evictions over %d windows", ev, windows)
		}
		requireSaturated(t, madeWarm, made(), 24+60+16+40)
		requireFlat(t, "live heap", heapWarm, liveHeap(), heapSlack)
		requireFlat(t, "goroutine count", uint64(goWarm), uint64(runtime.NumGoroutine()), 0)
		p.Close()
	})

	t.Run("sharded-w2", func(t *testing.T) {
		// A worker's states are its own while it runs, so what the engine
		// made is read after Close — once from an engine stopped at the
		// warm-up, once from the engine run to the end. The heap and the
		// goroutines are read live, each time the warm-up's (the last)
		// window has been delivered and the engine has caught up.
		run := func(windows int, at map[int]func()) int {
			closed := make(chan int64, windows+1)
			eng := NewSharded(ShardedConfig{Config: DefaultConfig(), Shards: 4, Workers: 2, BatchSize: 64},
				churnAggs()[1:2], func(s *tsv.Snapshot) { closed <- s.Start })
			for w := 0; w < windows; w++ {
				churnWindow(w, eng.Ingest)
				if probe := at[w]; probe != nil {
					for start := range closed { // window w-1 is out: every worker is in window w
						if start == 60*int64(w-1) {
							break
						}
					}
					probe()
				}
			}
			eng.Close()
			n := 0
			for _, w := range eng.workers {
				for _, st := range w.states[0] {
					slabs, logs := st.made()
					n += slabs + logs
				}
			}
			return n
		}
		madeWarm := run(warm, nil)
		var heapWarm, heapEnd uint64
		var goWarm, goEnd int
		madeEnd := run(windows, map[int]func(){
			warm:        func() { heapWarm, goWarm = liveHeap(), runtime.NumGoroutine() },
			windows - 1: func() { heapEnd, goEnd = liveHeap(), runtime.NumGoroutine() },
		})
		requireSaturated(t, madeWarm, madeEnd, 4*shardCapacity(60, 4))
		requireFlat(t, "live heap", heapWarm, heapEnd, heapSlack)
		requireFlat(t, "goroutine count", uint64(goWarm), uint64(goEnd), 0)
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() >= goEnd && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond) // exiting goroutines are counted until they are gone
		}
		if n := runtime.NumGoroutine(); n >= goEnd {
			t.Errorf("%d goroutines after Close, %d while the engine ran", n, goEnd)
		}
	})
}
