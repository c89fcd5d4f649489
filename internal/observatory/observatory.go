package observatory

import (
	"cmp"
	"slices"
	"sync"

	"dnsobservatory/internal/bloom"
	"dnsobservatory/internal/detect"
	"dnsobservatory/internal/features"
	"dnsobservatory/internal/metrics"
	"dnsobservatory/internal/sie"
	"dnsobservatory/internal/spacesaving"
	"dnsobservatory/internal/tsv"
)

// KeyFunc extracts a DNS object key from a transaction summary; ok=false
// drops the transaction from this aggregation (input filtering, §2.2).
type KeyFunc func(*sie.Summary) (key string, ok bool)

// KeyBytesFunc appends a DNS object key to buf and returns the extended
// buffer; ok=false drops the transaction from this aggregation. It is
// the allocation-free form of KeyFunc for composite keys that a KeyFunc
// could only produce by concatenating into a fresh string (srcsrv):
// engines pass a reusable buffer and feed the appended bytes straight to
// spacesaving.ObserveBytes, which materializes a string only when the
// key actually enters the top-k cache.
type KeyBytesFunc func(sum *sie.Summary, buf []byte) (key []byte, ok bool)

// Aggregation configures one tracked Top-k object universe.
type Aggregation struct {
	Name string  // dataset name (srvip, etld, esld, qname, …)
	K    int     // Space-Saving capacity
	Key  KeyFunc // key extractor / filter
	// KeyBytes, when non-nil, is used by every engine instead of Key on
	// the ingest hot path. Key must still be set and agree byte-for-byte
	// with KeyBytes (analyses and tests use it for direct lookups).
	KeyBytes KeyBytesFunc
	// NoAdmitter disables the Bloom eviction guard (for ablation and for
	// aggregations with tiny key universes such as qtype/rcode).
	NoAdmitter bool
}

// Config tunes the engine.
type Config struct {
	// WindowSec is the statistics window; the paper dumps every 60 s.
	WindowSec float64
	// HalfLifeSec is the decay half-life for Space-Saving rate estimates.
	HalfLifeSec float64
	// Features sizes per-object feature sets.
	Features features.Config
	// AdmitterN / AdmitterFP size Bloom admission filters.
	AdmitterN  int
	AdmitterFP float64
	// SkipFreshObjects drops objects inserted during the current window
	// from its snapshot — they have not yet survived a full window
	// (§2.4). Disable for ablation.
	SkipFreshObjects bool
	// ChaosHook, when set, runs for every summary a worker goroutine of
	// the worker shape processes, inside that worker's panic-recovery
	// scope. It is the chaos-injection point for worker panics
	// (chaos.Injector's PanicHook); leave nil in production. The inline
	// shape folds on its caller's goroutine, outside any recovery scope,
	// and runs no hook.
	ChaosHook func(*sie.Summary)
	// Metrics, when set, is the registry the engine publishes its ingest
	// accounting and per-aggregation cache health to. Nil means the
	// engine keeps private, unregistered counters — hot paths are
	// identical either way, so tests never contaminate a shared registry.
	Metrics *metrics.Registry
	// Detect, when set, attaches the streaming detection layer
	// (internal/detect): every accepted summary also feeds the
	// information-content and newly-observed-domain trackers, and each
	// window dump additionally delivers detect_esld and detect_nod
	// snapshots to the snapshot callback. The inline and worker shapes
	// produce byte-identical detection snapshots for the same stream
	// (see the detect package comment).
	Detect *detect.Config
}

// EngineStats is the ingest accounting the engine exposes via Stats().
// The invariant, once the stream is closed, is
//
//	Ingested = Accepted + Rejected
//
// Panics and Quarantined are diagnostics on top: Panics counts recovered
// panics, and Quarantined counts per-worker summary folds that were
// abandoned to one — the summary stays accepted, only the panicking
// worker's contribution is lost, so quarantining never kills a window.
// What is supervised: in both shapes the close of a window (collecting
// its rows) and the delivery of each snapshot to the callback, which are
// the same code; the per-transaction fold only on the worker shape's
// goroutines. A panic in the inline shape's fold unwinds its caller, so
// that shape never quarantines.
type EngineStats struct {
	// Ingested counts every transaction offered to the platform,
	// including ones rejected before reaching the engine.
	Ingested uint64
	// Accepted counts summaries dispatched into aggregation state.
	Accepted uint64
	// Rejected counts malformed transactions refused before feature
	// extraction (recorded by the caller via RecordRejected).
	Rejected uint64
	// Shed is always zero: the engine never drops a summary. Only
	// cmd/dnsbench, which checks Ingested = Accepted + Rejected + Shed,
	// reads it.
	Shed uint64
	// Panics counts recovered panics: folds, closes and snapshot callbacks.
	Panics uint64
	// Quarantined counts (worker, summary) folds abandoned to a panic.
	Quarantined uint64
}

// DefaultConfig mirrors the paper's operating point.
func DefaultConfig() Config {
	return Config{
		WindowSec:        60,
		HalfLifeSec:      60,
		Features:         features.DefaultConfig(),
		AdmitterN:        1 << 20,
		AdmitterFP:       0.01,
		SkipFreshObjects: true,
	}
}

// withDefaults fills zero fields in place.
func (cfg *Config) withDefaults() {
	if cfg.WindowSec <= 0 {
		cfg.WindowSec = 60
	}
	if cfg.HalfLifeSec <= 0 {
		cfg.HalfLifeSec = cfg.WindowSec
	}
	if cfg.AdmitterN <= 0 {
		cfg.AdmitterN = 1 << 20
	}
	if cfg.AdmitterFP <= 0 {
		cfg.AdmitterFP = 0.01
	}
}

// snapshotSchema returns the shared TSV schema (columns and kinds) of
// feature snapshots. The slices are built once and shared read-only by
// every snapshot.
var snapshotSchema = sync.OnceValues(func() ([]string, []tsv.Kind) {
	cols := make([]string, len(features.Columns))
	kinds := make([]tsv.Kind, len(features.Columns))
	for i, c := range features.Columns {
		cols[i] = c.Name
		kinds[i] = tsv.Kind(c.Kind)
	}
	return cols, kinds
})

// foldDefer is how many transactions of a window an object keeps as
// records before it is given a feature set. A constant, not an option:
// DESIGN.md ("Feature state lifecycle") has the sweep — the peak RSS of
// the replay benchmark is flat from 3 up.
const foldDefer = 3

// obsLog is the state of an object that has taken at most foldDefer
// hits in the open window: those transactions, in arrival order.
type obsLog struct {
	n    int
	recs [foldDefer]features.Obs
}

// freshState is the State of an entry that took hits in a window it
// cannot report in — it entered the cache during it (fresh): the hits are
// counted, and folded nowhere. One value shared by all such entries, and
// no state for any other purpose: eviction drops it, a close releases it
// without a row, and a fold that finds it on an entry no longer fresh
// starts from nothing.
type freshState struct{}

var freshMarker = new(freshState)

// aggState is one aggregation's (or one shard of one aggregation's)
// runtime state: the Space-Saving cache, its admission filter, window
// statistics, and the feature state of the objects the open window has
// folded. An entry's State is nil while its window has no hits, the
// freshMarker while it is fresh, and otherwise an *obsLog for its first
// foldDefer hits and a *features.Set after that; closing the window or
// evicting the entry hands log and set back to the pools here, so
// feature memory is sized by the traffic of one window and not by what
// the cache holds.
type aggState struct {
	agg        Aggregation
	cache      *spacesaving.Cache
	admitter   *bloom.Filter
	seenBefore uint64 // window transactions before filtering
	seenAfter  uint64 // window transactions aggregated into some object
	// free and freeLogs hold the feature sets (all reset) and record
	// blocks no entry owns. Nothing is dropped from them, so after a
	// close their lengths are how many of each this state ever made.
	free     []*features.Set
	freeLogs []*obsLog
	// scratch is the set a close replays each records-only object into,
	// one after the other (replayScratch); replaySum is the summary every
	// replay fills.
	scratch   *features.Set
	replaySum sie.Summary
	// touched lists the entries that took their first hit of the open
	// window, so closing the window visits what the window folded, not
	// the cache. An entry evicted and re-admitted inside the window is
	// listed once per object it monitored.
	touched []*spacesaving.Entry
	keyBuf  []byte // reusable KeyBytes buffer (inline ingest path)
	// lastEvict/lastDropped remember the cache counters at the previous
	// metrics publish, so each window adds only its delta.
	lastEvict   uint64
	lastDropped uint64
}

// newAggState builds the state of one shard of an aggregation, with a
// cache of the given capacity (shards pass ⌈K/S⌉+slack; the inline
// shape passes K).
func newAggState(a Aggregation, cfg *Config, shard, capacity int) *aggState {
	st := &aggState{agg: a}
	if !a.NoAdmitter {
		// Seeded by what the filter guards and by nothing else, so the same
		// stream through the same shape admits the same keys in any
		// process; per shard, so shards do not share their false positives.
		st.admitter = bloom.New(cfg.AdmitterN, cfg.AdmitterFP, hashKey(a.Name)+uint64(shard))
	}
	st.cache = spacesaving.New(capacity, cfg.HalfLifeSec, st.admitter)
	st.cache.OnEvictState = st.recycle
	return st
}

// featureSet returns an empty feature set, recycled if there is one.
func (st *aggState) featureSet(cfg *Config) *features.Set {
	if n := len(st.free); n > 0 {
		set := st.free[n-1]
		st.free = st.free[:n-1]
		return set
	}
	return features.NewSet(cfg.Features)
}

// recordLog returns an empty record block, recycled if there is one.
func (st *aggState) recordLog() *obsLog {
	if n := len(st.freeLogs); n > 0 {
		log := st.freeLogs[n-1]
		st.freeLogs = st.freeLogs[:n-1]
		return log
	}
	return new(obsLog)
}

// recycle takes back the feature state of an entry that is done with it
// (its window closed, or it was evicted), clearing it on the way in.
func (st *aggState) recycle(state any) {
	switch s := state.(type) {
	case *features.Set:
		s.Reset()
		st.free = append(st.free, s)
	case *obsLog:
		s.n = 0
		st.freeLogs = append(st.freeLogs, s)
	}
}

// replay folds a log's records into set in arrival order, through the
// one Set.Observe and with the operands the summaries had, so set ends
// as it would have had it folded the summaries themselves.
func (st *aggState) replay(log *obsLog, set *features.Set) {
	for i := range log.recs[:log.n] {
		log.recs[i].Fill(&st.replaySum)
		set.Observe(&st.replaySum)
	}
}

// replayScratch returns the scratch set holding log's records and
// nothing else, good until the next call.
func (st *aggState) replayScratch(log *obsLog, cfg *Config) *features.Set {
	if st.scratch == nil {
		st.scratch = features.NewSet(cfg.Features)
	}
	st.scratch.Reset()
	st.replay(log, st.scratch)
	return st.scratch
}

// fold adds sum to what e's object has seen this window, which began at
// windowStart; e is what observing the summary's key returned, in
// whichever view the caller holds it, and nil if the key was refused. It
// adds a record while the object's log has room and the record can hold
// sum exactly, and folds the feature set otherwise — taking one, and
// replaying the log into it first, when the object has none yet. A
// fresh entry takes the marker and no fold: it stays fresh to the end of
// the window (InsertedAt only moves forward), so the close would throw
// away whatever it was given.
func (st *aggState) fold(e *spacesaving.Entry, sum *sie.Summary, windowStart float64, cfg *Config) {
	if e == nil {
		return
	}
	set, _ := e.State.(*features.Set)
	if set == nil {
		log, _ := e.State.(*obsLog)
		if log == nil {
			if e.State == nil {
				// No state: the entry's first fold of the window.
				st.touched = append(st.touched, e)
			}
			if fresh(e, cfg, windowStart) {
				e.State = freshMarker
				st.seenAfter++
				return
			}
			// Not fresh; a marker still here is a panicked close's leftover.
			log = st.recordLog()
			e.State = log
		}
		if log.n < foldDefer && log.recs[log.n].From(sum) {
			log.n++
			st.seenAfter++
			return
		}
		set = st.featureSet(cfg)
		st.replay(log, set)
		st.recycle(log)
		e.State = set
	}
	set.Observe(sum)
	st.seenAfter++
}

// fresh reports whether e entered the cache during the window and so has
// not yet survived a full one (§2.4); such objects are not reported.
func fresh(e *spacesaving.Entry, cfg *Config, windowStart float64) bool {
	return cfg.SkipFreshObjects && e.InsertedAt > windowStart
}

// closeWindow ends the window for this state and adds what it held to
// part, visiting only the touched entries: one TSV row per entry that
// took hits and is not fresh (nor holds the marker of having been), the
// window counters, and the cache health the engines publish. It takes
// back the feature state of every entry it visits and clears the
// admission filter, keeping the top-k list. The rows' values share one
// arena sized by a counting pass, so a close allocates per aggregation,
// not per row.
//
// An entry gives up its state as soon as it is reported, which is what
// makes a twice-listed entry report once: its second visit finds none.
// If a corrupt set panics the pass, what was visited is already in part
// and released, and the rest is left as it was: the list is emptied and
// the counters move only after the pass, so the entries not reached keep
// their state and their listing and report with the next close.
func (st *aggState) closeWindow(part *shardPart, cfg *Config, windowStart, windowEnd float64) {
	reported := func(e *spacesaving.Entry) bool {
		return e.State != nil && e.State != freshMarker && !fresh(e, cfg, windowStart)
	}
	n := 0
	for _, e := range st.touched {
		if reported(e) {
			n++
		}
	}
	part.rows = slices.Grow(part.rows, n)
	arena := make([]float64, 0, n*len(features.Columns))
	for _, e := range st.touched {
		if e.State == nil {
			continue
		}
		set, heavy := e.State.(*features.Set)
		if heavy {
			part.slabs++
		}
		if e.State == freshMarker {
			part.fresh++
		}
		if reported(e) {
			if !heavy {
				set = st.replayScratch(e.State.(*obsLog), cfg)
			}
			// Rates are read decayed to the window end, so idle objects do
			// not report their last burst forever.
			from := len(arena)
			arena = set.AppendValues(arena, st.cache.RateAt(e, windowEnd))
			part.rows = append(part.rows, tsv.Row{Key: e.Key, Values: arena[from:len(arena):len(arena)]})
		}
		st.recycle(e.State)
		e.State = nil
		part.active++
	}
	st.touched = st.touched[:0]
	if st.admitter != nil {
		st.admitter.Reset()
	}
	part.seenBefore += st.seenBefore
	part.seenAfter += st.seenAfter
	st.seenBefore, st.seenAfter = 0, 0

	part.occupancy += st.cache.Len()
	part.minCount = max(part.minCount, st.cache.MinCount())
	ev, dr := st.cache.Evictions(), st.cache.Dropped()
	part.evictions += ev - st.lastEvict
	part.dropped += dr - st.lastDropped
	st.lastEvict, st.lastDropped = ev, dr
}

// sortRows orders snapshot rows by descending hits (column 0), ties
// broken by key — the canonical snapshot order.
func sortRows(rows []tsv.Row) {
	slices.SortFunc(rows, func(a, b tsv.Row) int {
		if c := cmp.Compare(b.Values[0], a.Values[0]); c != 0 {
			return c
		}
		return cmp.Compare(a.Key, b.Key)
	})
}
