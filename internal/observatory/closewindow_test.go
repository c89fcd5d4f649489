package observatory

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"dnsobservatory/internal/bloom"
	"dnsobservatory/internal/dnswire"
	"dnsobservatory/internal/features"
	"dnsobservatory/internal/metrics"
	"dnsobservatory/internal/sie"
	"dnsobservatory/internal/spacesaving"
	"dnsobservatory/internal/tsv"
)

// The engine state as it was before ISSUE 19, frozen as the reference
// for aggState: eager — an object is given a feature set at its first
// hit and keeps it, across windows, until it is evicted — and closed by
// the full scan of before ISSUE 18: two walks of the whole cache to
// count and fill the rows, a third to reset. It shares nothing with
// fold and closeWindow but Set.Observe and Set.AppendValues.
type eagerState struct {
	agg        Aggregation
	cache      *spacesaving.Cache
	admitter   *bloom.Filter
	seenBefore uint64
	seenAfter  uint64
	free       []*features.Set
}

// newEagerState mirrors newAggState, down to the admitter: the sizing
// the engine is configured with and the seed rule, stated here a second
// time — the shard's index past the hash of the aggregation's name — so
// that an engine that seeds a shard any other way admits other keys than
// its oracle and fails against it.
func newEagerState(a Aggregation, cfg *Config, shard, capacity int) *eagerState {
	st := &eagerState{agg: a}
	if !a.NoAdmitter {
		st.admitter = bloom.New(cfg.AdmitterN, cfg.AdmitterFP, hashKey(a.Name)+uint64(shard))
	}
	st.cache = spacesaving.New(capacity, cfg.HalfLifeSec, st.admitter)
	st.cache.OnEvictState = func(state any) {
		if set, ok := state.(*features.Set); ok {
			st.free = append(st.free, set)
		}
	}
	return st
}

func (st *eagerState) observe(key string, sum *sie.Summary, now float64, cfg *Config) {
	e := st.cache.Observe(key, now)
	if e == nil {
		return
	}
	set, ok := e.State.(*features.Set)
	if !ok {
		if n := len(st.free); n > 0 {
			set = st.free[n-1]
			st.free = st.free[:n-1]
			set.Reset()
		} else {
			set = features.NewSet(cfg.Features)
		}
		e.State = set
	}
	set.Observe(sum)
	st.seenAfter++
}

// hitSet returns e's feature set if it took hits this window.
func hitSet(e *spacesaving.Entry) *features.Set {
	if set, ok := e.State.(*features.Set); ok && set.Hits > 0 {
		return set
	}
	return nil
}

func refReportable(e *spacesaving.Entry, cfg *Config, windowStart float64) *features.Set {
	if cfg.SkipFreshObjects && e.InsertedAt > windowStart {
		return nil
	}
	return hitSet(e)
}

func (st *eagerState) refWindowRows(rows []tsv.Row, cfg *Config, windowStart, windowEnd float64) []tsv.Row {
	n := 0
	st.cache.Entries(func(e *spacesaving.Entry) {
		if refReportable(e, cfg, windowStart) != nil {
			n++
		}
	})
	if n == 0 {
		return rows
	}
	rows = slices.Grow(rows, n)
	arena := make([]float64, 0, n*len(features.Columns))
	st.cache.Entries(func(e *spacesaving.Entry) {
		set := refReportable(e, cfg, windowStart)
		if set == nil {
			return
		}
		from := len(arena)
		arena = set.AppendValues(arena, st.cache.RateAt(e, windowEnd))
		rows = append(rows, tsv.Row{Key: e.Key, Values: arena[from:len(arena):len(arena)]})
	})
	return rows
}

func (st *eagerState) refResetWindow() {
	st.cache.Entries(func(e *spacesaving.Entry) {
		if set := hitSet(e); set != nil {
			set.Reset()
		}
	})
	if st.admitter != nil {
		st.admitter.Reset()
	}
	st.seenBefore, st.seenAfter = 0, 0
}

// hits counts the entries whose object took hits this window.
func (st *eagerState) hits() int {
	n := 0
	st.cache.Entries(func(e *spacesaving.Entry) {
		if hitSet(e) != nil {
			n++
		}
	})
	return n
}

// refEngine is the engines' window logic — the serial pipeline's with
// one shard of capacity K, the sharded engine's with S of its shard
// capacity — over the frozen state. Shards partition the keys and every
// worker sees every window boundary, so what the sharded engine emits
// does not depend on its worker count, only on S.
type refEngine struct {
	cfg         Config
	aggs        []Aggregation
	states      [][]*eagerState // [aggregation][shard]
	windowStart float64
	started     bool
	out         []*tsv.Snapshot
}

// newRefEngine builds the reference over any aggregations, admitters
// included: a filter's answers are a function of its seed and what it
// was fed, so the reference admits what an engine of its shape admits.
func newRefEngine(cfg Config, aggs []Aggregation, shards int, capacity func(k int) int) *refEngine {
	cfg.withDefaults()
	r := &refEngine{cfg: cfg, aggs: aggs, states: make([][]*eagerState, len(aggs))}
	for a, agg := range aggs {
		for s := 0; s < shards; s++ {
			r.states[a] = append(r.states[a], newEagerState(agg, &r.cfg, s, capacity(agg.K)))
		}
	}
	return r
}

// ingest folds one summary; quarantined is a summary a worker's chaos
// hook panicked on, which is counted before filtering and folded nowhere.
func (r *refEngine) ingest(sum *sie.Summary, now float64, quarantined bool) {
	if !r.started {
		r.windowStart = now - mod(now, r.cfg.WindowSec)
		r.started = true
	}
	if now < r.windowStart {
		now = r.windowStart
	}
	for now >= r.windowStart+r.cfg.WindowSec {
		r.dump()
		r.windowStart += r.cfg.WindowSec
	}
	for a, agg := range r.aggs {
		r.states[a][0].seenBefore++
		if quarantined {
			continue
		}
		if key, ok := agg.Key(sum); ok {
			shard := hashKey(key) % uint64(len(r.states[a]))
			r.states[a][shard].observe(key, sum, now, &r.cfg)
		}
	}
}

func (r *refEngine) dump() {
	cols, kinds := snapshotSchema()
	for a, agg := range r.aggs {
		parts := make([]*tsv.Snapshot, len(r.states[a]))
		for s, st := range r.states[a] {
			parts[s] = &tsv.Snapshot{
				Aggregation: agg.Name, Level: tsv.Minutely, Start: int64(r.windowStart),
				Columns: cols, Kinds: kinds, Windows: 1,
				TotalBefore: st.seenBefore, TotalAfter: st.seenAfter,
				Rows: st.refWindowRows(nil, &r.cfg, r.windowStart, r.windowStart+r.cfg.WindowSec),
			}
			st.refResetWindow()
		}
		r.out = append(r.out, refMergeParts(agg.K, parts...))
	}
}

// churnAggs are capacities far below the key universe of churnEvents, so
// every window evicts entries and re-admits keys it evicted. NoAdmitter:
// unguarded, every newcomer evicts, which is the most a close can be
// made to follow; the matrix's admitter row (engineShape.guarded) runs
// the same four behind their filters.
func churnAggs() []Aggregation {
	return []Aggregation{
		{Name: "srvip", K: 24, Key: SrvIPKey, NoAdmitter: true},
		{Name: "qname", K: 60, Key: QNameKey, NoAdmitter: true},
		{Name: "qtype", K: 16, Key: QTypeKey, NoAdmitter: true},
		{Name: "srcsrv", K: 40, Key: SrcSrvKey, KeyBytes: SrcSrvKeyBytes, NoAdmitter: true},
	}
}

// churnEvents is a seeded stream over ~7 windows: a few hot keys, a long
// tail, two windows with nothing in them, a partial last window, and a
// "poison." name every 41st event for the chaos hook.
func churnEvents() []shardedEvent {
	var events []shardedEvent
	x := uint64(18)
	now := 30.0 // the first window starts mid-minute
	for i := 0; i < 9000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		r := x
		e := shardedEvent{
			resolver: fmt.Sprintf("192.0.2.%d", r%13+1),
			ns:       fmt.Sprintf("198.51.100.%d", (r>>8)%150+1),
			qname:    fmt.Sprintf("h%d.zone%d.example.", (r>>16)%5, (r>>24)%400),
			qtype:    []dnswire.Type{dnswire.TypeA, dnswire.TypeAAAA, dnswire.TypeMX}[(r>>40)%3],
		}
		if r%4 == 0 { // the hot head
			e.ns, e.qname = fmt.Sprintf("198.51.100.%d", r%7+1), fmt.Sprintf("www.hot%d.example.", r%9)
		}
		if i%41 == 40 {
			e.qname = "poison." + e.qname
		}
		now += 0.035
		if i == 4000 {
			now += 150 // two whole windows pass with no traffic
		}
		e.now = now
		events = append(events, e)
	}
	return events
}

func poisoned(s *sie.Summary) bool { return strings.HasPrefix(s.QName, "poison.") }

// TestCloseWindowMatchesFullScan holds the touched-entry close to the
// frozen full scan, row for row: through every engine shape against the
// reference engine of that shape, and on one state against the reference's walk of
// that same state, which is where a close that panicked half-way can be
// followed into the next window.
func TestCloseWindowMatchesFullScan(t *testing.T) {
	events := churnEvents()
	for _, skipFresh := range []bool{true, false} {
		cfg := DefaultConfig()
		cfg.SkipFreshObjects = skipFresh

		for _, shape := range engineMatrix {
			t.Run(fmt.Sprintf("%s/skipfresh=%v", shape.name, skipFresh), func(t *testing.T) {
				ref := shape.oracle(cfg, churnAggs())
				hooked, poison := shape.poisonHook(cfg)
				var got []*tsv.Snapshot
				eng := shape.build(hooked, churnAggs(), func(s *tsv.Snapshot) { got = append(got, s) })
				for _, e := range events {
					s := sum(e.resolver, e.ns, e.qname, e.qtype)
					ref.ingest(s, e.now, poison && poisoned(s))
					eng.ingest(s, e.now)
				}
				ref.dump()
				eng.close()
				if es := eng.stats(); poison && es.Quarantined == 0 {
					t.Fatal("the chaos hook never fired")
				}
				var evictions, refused uint64
				for _, c := range eng.caches("qname") {
					evictions += c.Evictions()
					refused += c.Dropped()
				}
				requireChurned(t, ref.out, evictions)
				if (refused > 0) != (shape.admitterN > 0) {
					t.Fatalf("the filters refused %d keys", refused)
				}
				sortSnaps(ref.out)
				sortSnaps(got)
				requireSnapsEqual(t, ref.out, got)
			})
		}

		t.Run(fmt.Sprintf("state/skipfresh=%v", skipFresh), func(t *testing.T) {
			testCloseWindowOnOneState(t, cfg, events)
		})
	}
}

// requireChurned checks the stream did what the comparison needs of it:
// at least five windows, an empty one among them, and evictions.
func requireChurned(t *testing.T, snaps []*tsv.Snapshot, evictions uint64) {
	t.Helper()
	windows, empty := 0, 0
	for _, s := range snaps {
		if s.Aggregation == "qname" {
			windows++
			if len(s.Rows) == 0 {
				empty++
			}
		}
	}
	if windows < 5 || empty == 0 || evictions < 1000 {
		t.Fatalf("stream too tame: %d windows, %d empty, %d evictions", windows, empty, evictions)
	}
}

// testCloseWindowOnOneState closes one admitter-guarded state window by
// window, next to an eager state fed the same stream behind the
// admitter of the same shard. Before each close the frozen walk of the
// eager state says what the rows should be; after it, the state must
// hold no feature state at all. In one window an entry's state is
// swapped for a corrupt set, so the close panics part-way as a worker's
// would; the state is put back, the eager state is reset for exactly the
// entries the broken pass released (and, with SkipFreshObjects, those
// fresh in that window, which hold a marker and no hits), and the next
// close must still report what the full scan finds, the entries the
// pass never reached included.
func testCloseWindowOnOneState(t *testing.T, cfg Config, events []shardedEvent) {
	cfg.withDefaults()
	cfg.AdmitterN = 1 << 12
	agg := Aggregation{Name: "qname", K: 60, Key: QNameKey}
	st := newAggState(agg, &cfg, 0, 60)
	ref := newEagerState(agg, &cfg, 0, 60)
	const panicWindow = 2
	var windowStart float64
	windows, relisted, carried, logs, slabs, markers := 0, 0, 0, 0, 0, 0

	// A marker is state only while its entry is fresh: one a panicked
	// close left on an entry that has since aged is stale — the next close
	// releases it, counted with that window's, and has nothing to report.
	holders := func() (held, stale int) {
		st.cache.Entries(func(e *spacesaving.Entry) {
			switch {
			case e.State == freshMarker && !fresh(e, &cfg, windowStart):
				stale++
			case e.State != nil:
				held++
			}
		})
		return held, stale
	}
	held := func() int { n, _ := holders(); return n }
	closeAndCompare := func() {
		t.Helper()
		end := windowStart + cfg.WindowSec
		want := ref.refWindowRows(nil, &cfg, windowStart, end)
		sortRows(want)
		hit := ref.hits()
		if got := held(); got != hit {
			t.Fatalf("window %d: %d entries hold state, %d took hits", windows, got, hit)
		}
		relisted += len(st.touched) - hit
		before, after := st.seenBefore, st.seenAfter
		if before != ref.seenBefore || after != ref.seenAfter {
			t.Fatalf("window %d: counters %d/%d, the eager state's %d/%d", windows, before, after, ref.seenBefore, ref.seenAfter)
		}

		if windows == panicWindow && len(st.touched) > 8 {
			// Corrupt the state of an entry in the middle of the list.
			victim := st.touched[len(st.touched)/2]
			good := victim.State
			victim.State = &features.Set{Hits: 1} // no sketches behind it
			var part shardPart
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("closing over a corrupt feature set did not panic")
					}
				}()
				st.closeWindow(&part, &cfg, windowStart, end)
			}()
			victim.State = good
			if st.seenBefore != before || st.seenAfter != after || part.seenBefore != 0 || len(st.touched) == 0 {
				t.Fatal("a close that panicked moved the window counters or dropped its list")
			}
			carried = held()
			// What the pass reached is in the part and released; the rest
			// still holds its state. Nothing is in both, nothing in neither.
			if len(part.rows) == 0 || part.active+carried != hit {
				t.Fatalf("the panicked close reported %d rows and released %d entries, %d still hold state, of %d",
					len(part.rows), part.active, carried, hit)
			}
			// The window stays open, as in a worker whose dump panicked:
			// the eager state forgets what the pass released and no more.
			// The post-panic rule of ISSUE 20, the one place the oracle is
			// told about it: an entry fresh in the panicked window folded
			// nothing there, so what the eager state folded for it goes too.
			ref.cache.Entries(func(e *spacesaving.Entry) {
				if set := hitSet(e); set != nil && (st.cache.Get(e.Key).State == nil || fresh(e, &cfg, windowStart)) {
					set.Reset()
				}
			})
			return
		}

		_, stale := holders()
		var part shardPart
		st.closeWindow(&part, &cfg, windowStart, end)
		ref.refResetWindow()
		sortRows(part.rows)
		cols, _ := snapshotSchema()
		requireSnapsEqual(t,
			[]*tsv.Snapshot{{Aggregation: "qname", Start: int64(windowStart), Rows: want, Columns: cols, TotalBefore: before, TotalAfter: after}},
			[]*tsv.Snapshot{{Aggregation: "qname", Start: int64(windowStart), Rows: part.rows, Columns: cols, TotalBefore: part.seenBefore, TotalAfter: part.seenAfter}})
		if part.active != hit+stale || part.occupancy != st.cache.Len() || part.slabs+part.fresh > part.active ||
			len(part.rows) != part.active-part.fresh {
			t.Fatalf("window %d: closeWindow counted %d active (%d with a set, %d with a marker) of %d entries for %d rows, %d took hits and %d held a stale marker of %d",
				windows, part.active, part.slabs, part.fresh, part.occupancy, len(part.rows), hit, stale, st.cache.Len())
		}
		slabs += part.slabs
		markers += part.fresh
		logs += part.active - part.slabs - part.fresh
		if n := held(); n != 0 {
			t.Fatalf("window %d: %d entries still hold state after the close", windows, n)
		}
		if st.seenBefore != 0 || st.seenAfter != 0 || st.admitter.Count() != 0 || len(st.touched) != 0 {
			t.Fatalf("window %d: counters %d/%d, admitter %d, list %d after the close", windows,
				st.seenBefore, st.seenAfter, st.admitter.Count(), len(st.touched))
		}
	}

	for i, e := range events {
		if i == 0 {
			windowStart = e.now - mod(e.now, cfg.WindowSec)
		}
		for e.now >= windowStart+cfg.WindowSec {
			closeAndCompare()
			windows++
			windowStart += cfg.WindowSec
		}
		st.seenBefore++
		ref.seenBefore++
		s := sum(e.resolver, e.ns, e.qname, e.qtype)
		s.PrecomputeHashes(cfg.Features.Suffixes)
		st.fold(st.cache.Observe(s.QName, e.now), s, windowStart, &cfg)
		ref.observe(s.QName, s, e.now, &cfg)
	}
	closeAndCompare()
	if windows < 5 || relisted == 0 || carried == 0 || st.cache.Dropped() == 0 || logs == 0 || slabs == 0 || (markers > 0) != cfg.SkipFreshObjects {
		t.Fatalf("stream too tame: %d windows, %d re-listed entries, %d carried over the panic, %d refused by the admitter, "+
			"%d objects closed on records, %d on a set and %d on a marker", windows, relisted, carried, st.cache.Dropped(), logs, slabs, markers)
	}
}

// TestFreshEntriesTakeNoFold: an entry that entered the cache in the
// open window holds the shared marker — no log, no set, nothing folded —
// and everything else folds as the eager engine folds it. Over
// TestCloseWindowMatchesFullScan's matrix (every engine shape, the worker
// engines with folds lost to chaos panics; SkipFreshObjects on and off)
// and its stream (evictions and re-admissions inside a window, a
// mid-minute start, empty windows, a partial last one) with every 53rd
// event back-dated past its window's start, so that the clamp admits
// keys at the window start exactly, where an entry is not fresh. Row for
// row against the eager oracle, which knows no marker; and per window
// the gauges account for every row: what was active and not fresh is
// what is reported. With SkipFreshObjects off not one fold is skipped.
func TestFreshEntriesTakeNoFold(t *testing.T) {
	events := churnEvents()
	for i := range events {
		if i%53 == 52 {
			events[i].now -= 70
		}
	}
	type gauges struct{ active, fresh int }
	// collect returns the engines' snapshot callback: the merger and the
	// serial dump publish an aggregation's gauges just before they deliver
	// its snapshot, so this reads the closed window's.
	collect := func(reg *metrics.Registry, got *[]*tsv.Snapshot, seen map[string]gauges) func(*tsv.Snapshot) {
		return func(s *tsv.Snapshot) {
			*got = append(*got, s)
			seen[snapKey(s)] = gauges{
				active: int(reg.Gauge(MetricTopkActive, "", "agg", s.Aggregation).Value()),
				fresh:  int(reg.Gauge(MetricTopkFresh, "", "agg", s.Aggregation).Value()),
			}
		}
	}
	requireAccounted := func(t *testing.T, cfg Config, got []*tsv.Snapshot, seen map[string]gauges) {
		t.Helper()
		k := map[string]int{}
		for _, a := range churnAggs() {
			k[a.Name] = a.K
		}
		markers, atWindowStart := 0, 0
		for _, s := range got {
			g := seen[snapKey(s)]
			if want := min(k[s.Aggregation], g.active-g.fresh); len(s.Rows) != want {
				t.Fatalf("%s: %d rows for %d active entries of which %d held a marker", snapKey(s), len(s.Rows), g.active, g.fresh)
			}
			markers += g.fresh
			if s.Start == 0 {
				atWindowStart += len(s.Rows) // the first window reports only what the clamp admitted at its start
			}
		}
		if (markers > 0) != cfg.SkipFreshObjects || atWindowStart == 0 {
			t.Fatalf("SkipFreshObjects %v: %d entries closed on a marker, %d rows in the first window", cfg.SkipFreshObjects, markers, atWindowStart)
		}
	}

	for _, skipFresh := range []bool{true, false} {
		cfg := DefaultConfig()
		cfg.SkipFreshObjects = skipFresh

		for _, shape := range engineMatrix {
			t.Run(fmt.Sprintf("%s/skipfresh=%v", shape.name, skipFresh), func(t *testing.T) {
				ref := shape.oracle(cfg, churnAggs())
				hooked, poison := shape.poisonHook(cfg)
				hooked.Metrics = metrics.NewRegistry()
				var got []*tsv.Snapshot
				seen := map[string]gauges{}
				eng := shape.build(hooked, churnAggs(), collect(hooked.Metrics, &got, seen))
				skipped, clamped := 0, 0
				for _, e := range events {
					s := sum(e.resolver, e.ns, e.qname, e.qtype)
					ref.ingest(s, e.now, poison && poisoned(s))
					eng.ingest(s, e.now)
					if eng.pipe == nil {
						continue // a worker's states are its own while it runs
					}
					// Whatever holds state holds the marker exactly if it is fresh.
					w, states := eng.pipe.inlineStates()
					for _, st := range states {
						st.cache.Entries(func(en *spacesaving.Entry) {
							isFresh := fresh(en, &eng.pipe.cfg, w.windowStart)
							if en.State != nil && (en.State == freshMarker) != isFresh {
								t.Fatalf("%s at %v: entry %q (inserted at %v, window from %v) holds %T", st.agg.Name, e.now, en.Key, en.InsertedAt, w.windowStart, en.State)
							}
							if en.State == freshMarker {
								skipped++
							}
							if en.State != nil && en.InsertedAt == w.windowStart {
								clamped++
							}
						})
					}
				}
				ref.dump()
				eng.close()
				if es := eng.stats(); poison && es.Quarantined == 0 {
					t.Fatal("the chaos hook never fired")
				}
				if eng.pipe != nil && ((skipped > 0) != skipFresh || clamped == 0) {
					t.Fatalf("%d marker sightings, %d of entries admitted at a window start", skipped, clamped)
				}
				sortSnaps(ref.out)
				sortSnaps(got)
				requireSnapsEqual(t, ref.out, got)
				requireAccounted(t, hooked, got, seen)
			})
		}
	}
}

// TestCloseWindowVisitsOnlyTouched: closing a window costs what the
// window folded. With 50 active keys the pass is 50 entries long (plus
// one per entry evicted and re-admitted) and allocates the rows and
// their arena, whether the cache holds a thousand keys or a hundred
// thousand.
func TestCloseWindowVisitsOnlyTouched(t *testing.T) {
	cfg := DefaultConfig()
	cfg.withDefaults()
	const active = 50
	for _, k := range []int{1000, 100_000} {
		st := newAggState(Aggregation{Name: "qname", K: k, Key: QNameKey, NoAdmitter: true}, &cfg, 0, k)
		for i := 0; i < k; i++ { // fill the cache; idle entries carry no feature set
			st.cache.Observe(fmt.Sprintf("idle%d.example.", i), 1)
		}
		sums := make([]*sie.Summary, active)
		for i := range sums {
			sums[i] = sum("192.0.2.1", "198.51.100.1", fmt.Sprintf("idle%d.example.", i*7), dnswire.TypeA)
			sums[i].PrecomputeHashes(cfg.Features.Suffixes)
		}
		window := func(start float64) (visited, rows, counted int) {
			for round := 0; round < 3; round++ {
				for _, s := range sums {
					st.fold(st.cache.Observe(s.QName, start+float64(round)), s, start, &cfg)
				}
			}
			visited = len(st.touched)
			var part shardPart
			st.closeWindow(&part, &cfg, start, start+60)
			return visited, len(part.rows), part.active
		}
		window(60) // the active entries get their feature sets
		if visited, rows, counted := window(120); visited != active || rows != active || counted != active {
			t.Errorf("K=%d: visited %d entries for %d rows (%d counted active), want %d each", k, visited, rows, counted, active)
		}
		start := 180.0
		// The rows and their arena; a -race build does not elide
		// slices.Grow's temporary and so allocates the rows twice.
		if allocs := testing.AllocsPerRun(10, func() { window(start); start += 60 }); allocs > 3 {
			t.Errorf("K=%d: a window of %d active keys allocates %.0f objects, want the rows and their arena", k, active, allocs)
		}

		// Five newcomers each take over an idle entry: five more visits,
		// and no more rows, since a fresh object is not reported.
		for i := 0; i < 5; i++ {
			s := sum("192.0.2.1", "198.51.100.1", fmt.Sprintf("new%d.example.", i), dnswire.TypeA)
			st.fold(st.cache.Observe(s.QName, start+1), s, start, &cfg)
		}
		if visited, rows, counted := window(start); visited != active+5 || rows != active || counted != active+5 {
			t.Errorf("K=%d: with 5 admissions visited %d entries for %d rows (%d counted active), want %d, %d and %d",
				k, visited, rows, counted, active+5, active, active+5)
		}
	}
}

// TestTopkActiveGauge: both engines publish how many monitored keys the
// closed window folded, next to how many they monitor, how many of the
// folded ones took more hits than a record log holds, and how many were
// too new to report and so folded nothing.
func TestTopkActiveGauge(t *testing.T) {
	aggs := []Aggregation{{Name: "qname", K: 100, Key: QNameKey, NoAdmitter: true}}
	feed := func(ingest func(*sie.Summary, float64)) {
		for i := 0; i < 40; i++ { // window 0: 40 names
			ingest(sum("192.0.2.1", "198.51.100.1", fmt.Sprintf("n%d.example.", i), dnswire.TypeA), float64(i))
		}
		for i := 0; i < 30; i++ { // window 1: 10 of them, foldDefer times each
			ingest(sum("192.0.2.1", "198.51.100.1", fmt.Sprintf("n%d.example.", i%10), dnswire.TypeA), 60+float64(i))
		}
		for i := 0; i < 2; i++ { // and two of those once more
			ingest(sum("192.0.2.1", "198.51.100.1", fmt.Sprintf("n%d.example.", i), dnswire.TypeA), 100+float64(i))
		}
		for i := 0; i < 15; i++ { // and five names the cache has not seen, three times each
			ingest(sum("192.0.2.1", "198.51.100.1", fmt.Sprintf("new%d.example.", i%5), dnswire.TypeA), 105+float64(i))
		}
		ingest(sum("192.0.2.1", "198.51.100.1", "n0.example.", dnswire.TypeA), 120) // closes window 1
	}
	check := func(t *testing.T, reg *metrics.Registry) {
		t.Helper()
		occ, act, slabs, fresh := reg.Sum(MetricTopkOccupancy), reg.Sum(MetricTopkActive), reg.Sum(MetricTopkSlabs), reg.Sum(MetricTopkFresh)
		if occ != 45 || act != 15 || slabs != 2 || fresh != 5 {
			t.Errorf("after window 1: occupancy %v, active %v, slabs %v, fresh %v, want 45, 15, 2 and 5", occ, act, slabs, fresh)
		}
	}
	t.Run("serial", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.Metrics = metrics.NewRegistry()
		p := New(cfg, aggs, nil)
		feed(p.Ingest)
		check(t, cfg.Metrics)
	})
	t.Run("sharded", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.Metrics = metrics.NewRegistry()
		windows := make(chan int64, 8)
		eng := NewSharded(ShardedConfig{Config: cfg, Shards: 4, Workers: 2, BatchSize: 1}, aggs,
			func(s *tsv.Snapshot) { windows <- s.Start })
		feed(eng.Ingest)
		for start := range windows { // the merger publishes before it delivers
			if start == 60 {
				break
			}
		}
		check(t, cfg.Metrics)
		eng.Close()
	})
}

// refMergeParts is the oracle's merge of one window's shard parts, a
// frozen copy of the tsv.MergeParts it used to call: rows united (a
// duplicate key summed on Counter columns, the heavier part's value
// elsewhere), statistics summed, rows in canonical order and cut at
// topK when topK > 0.
func refMergeParts(topK int, parts ...*tsv.Snapshot) *tsv.Snapshot {
	first := parts[0]
	out := &tsv.Snapshot{
		Aggregation: first.Aggregation,
		Level:       first.Level,
		Start:       first.Start,
		Columns:     first.Columns,
		Kinds:       first.Kinds,
		Windows:     first.Windows,
	}
	total := 0
	for _, p := range parts {
		total += len(p.Rows)
	}
	out.Rows = make([]tsv.Row, 0, total)
	idx := make(map[string]int, total)
	var owned []bool // whether out.Rows[i].Values is a private copy
	for _, p := range parts {
		out.TotalBefore += p.TotalBefore
		out.TotalAfter += p.TotalAfter
		for _, r := range p.Rows {
			j, dup := idx[r.Key]
			if !dup {
				idx[r.Key] = len(out.Rows)
				out.Rows = append(out.Rows, r)
				owned = append(owned, false)
				continue
			}
			dst := &out.Rows[j]
			if !owned[j] {
				dst.Values = append([]float64(nil), dst.Values...)
				owned[j] = true
			}
			heavier := len(r.Values) > 0 && r.Values[0] > dst.Values[0]
			for i := range dst.Values {
				if first.Kinds[i] == tsv.Counter {
					dst.Values[i] += r.Values[i]
				} else if heavier {
					dst.Values[i] = r.Values[i]
				}
			}
		}
	}
	if len(first.Columns) > 0 {
		sort.Slice(out.Rows, func(i, j int) bool {
			vi, vj := out.Rows[i].Values[0], out.Rows[j].Values[0]
			if vi != vj {
				return vi > vj
			}
			return out.Rows[i].Key < out.Rows[j].Key
		})
	}
	if topK > 0 && topK < len(out.Rows) {
		out.Rows = out.Rows[:topK]
	}
	return out
}
