package observatory

import (
	"time"

	"dnsobservatory/internal/detect"
	"dnsobservatory/internal/features"
	"dnsobservatory/internal/sie"
	"dnsobservatory/internal/tsv"
)

// core is the one engine both entry points configure: a grid of
// aggregation states, [aggregation][shard], dealt to workers; the window
// state machine every worker runs; the worker-side close; and the emit
// that turns a window's dumps into snapshots. What differs between the
// entry points is how a summary reaches an aggState and where a finished
// dump goes:
//
//	          workers  shards  cache capacity       merger  fed by
//	Pipeline  1        1       K                    none    the caller's goroutine, inline
//	Sharded   W        S       shardCapacity(K, S)  yes     batches to worker goroutines
type core struct {
	cfg    Config
	aggs   []Aggregation
	shards int
	det    *detect.Detector
	// prep folds nothing: it is the set summaries are prepared on, once
	// per transaction, before any key function or worker reads them.
	prep    *features.Set
	workers []*worker
	// merges carries every worker's dumps to the merger goroutine. Nil
	// means there is none: the one worker emits its dump on the spot,
	// inside the call that closed the window.
	merges     chan *shardDump
	onSnapshot func(*tsv.Snapshot)
	// delivering is the first Seq of the window whose snapshots are
	// being delivered (FirstOfWindow); only the delivering goroutine
	// writes and reads it.
	delivering uint64
	closed     bool // the stream has ended: Flush or Close has run
	// Ingest accounting (see EngineStats). Counters are atomic: workers
	// bump panic counters concurrently with producers bumping the rest.
	m *engineMetrics
}

// worker owns the states of the shards dealt to it and the window they
// are in. The pipeline's one worker runs on the caller's goroutine; the
// sharded engine's run on their own, each fed through in.
type worker struct {
	id   int
	eng  *core
	in   chan *shardBatch // nil on the pipeline's worker, as is done
	done chan struct{}
	// states[a][l] is the state of shard l*workers+id of aggregation a.
	states [][]*aggState
	// The open window, [windowStart, windowEnd), once started, and the
	// Seq of the first summary it holds.
	windowStart, windowEnd float64
	first                  uint64
	started                bool
}

// shardDump is one worker's contribution to one window's snapshots.
type shardDump struct {
	windowStart float64
	first       uint64      // the window's first Seq (see FirstOfWindow)
	parts       []shardPart // indexed like aggs
	// det holds the detection window parts of the partitions this worker
	// owns (empty when detection is off).
	det []detect.WindowPart
}

// shardPart is what closing a window takes out of the aggregation states
// it is handed to (aggState.closeWindow): all of one worker's shards of
// an aggregation.
type shardPart struct {
	rows       []tsv.Row
	seenBefore uint64
	seenAfter  uint64
	// Cache health, collected at close time when the closer has exclusive
	// access; the emit sums the workers' parts and publishes one value
	// per aggregation, so per-agg metrics never race with worker ingest.
	occupancy int
	active    int    // entries that took hits this window
	slabs     int    // those of them that outgrew their record log
	fresh     int    // those of them too new to report, which folded nothing
	minCount  uint64 // max over shards: the worst-case bound
	evictions uint64 // delta since the previous window
	dropped   uint64 // delta since the previous window
}

// init builds the engine: shards states per aggregation, each with a
// cache of capacity(K), dealt round-robin to workers; engine is the
// metrics' engine label.
func (c *core) init(cfg Config, engine string, aggs []Aggregation, onSnapshot func(*tsv.Snapshot), shards, workers int, capacity func(k int) int) {
	cfg.withDefaults()
	*c = core{
		cfg:        cfg,
		aggs:       aggs,
		shards:     shards,
		prep:       features.NewSet(cfg.Features),
		onSnapshot: onSnapshot,
		m:          newEngineMetrics(cfg.Metrics, engine),
	}
	if cfg.Detect != nil {
		dc := *cfg.Detect
		if dc.Metrics == nil {
			dc.Metrics = cfg.Metrics
		}
		c.det = detect.New(dc)
	}
	for id := 0; id < workers; id++ {
		w := &worker{id: id, eng: c, states: make([][]*aggState, len(aggs))}
		for a, agg := range aggs {
			for sh := id; sh < shards; sh += workers {
				w.states[a] = append(w.states[a], newAggState(agg, &c.cfg, sh, capacity(agg.K)))
			}
		}
		c.workers = append(c.workers, w)
	}
}

// enter places sum, at stream time now, in the worker's window sequence,
// closing every window it has crossed, and returns now clamped to the
// open window: a now earlier than the window (a reordered or backdated
// transaction) folds into the open window instead of corrupting decay
// state. It runs once per item per worker, so the common case — still
// in the open window — is kept small enough to inline (a plain method
// with the loop inside read 5 % slower on the sharded replay), and
// everything else, sum's Seq included, is rollover's.
func (w *worker) enter(now float64, sum *sie.Summary) float64 {
	if w.started && now >= w.windowStart && now < w.windowEnd {
		return now
	}
	return w.rollover(now, sum)
}

// rollover is enter for a now outside the open window. The first window
// is aligned to a multiple of WindowSec; every crossed window is closed,
// the empty ones included, and each window opened here starts at sum.
func (w *worker) rollover(now float64, sum *sie.Summary) float64 {
	win := w.eng.cfg.WindowSec
	if !w.started {
		w.windowStart = now - mod(now, win)
		w.windowEnd = w.windowStart + win
		w.first = sum.Seq
		w.started = true
	}
	if now < w.windowStart {
		return w.windowStart
	}
	for now >= w.windowEnd {
		w.closeWindow()
		w.windowStart += win
		w.windowEnd = w.windowStart + win
		w.first = sum.Seq
	}
	return now
}

func mod(x, m float64) float64 {
	r := x - float64(int64(x/m))*m
	if r < 0 {
		r += m
	}
	return r
}

// finish closes the open (possibly partial) window at end of stream.
func (w *worker) finish() {
	if w.started {
		w.closeWindow()
	}
}

// closeWindow takes this worker's share of the closing window out of its
// states and detect partitions and hands it on: to the merger, or, with
// none, straight to emitWindow. A panic while collecting rows (corrupt
// feature state) is recovered and counted; the dump — possibly missing
// what the pass had not reached, which stays open and reports with the
// next window (see aggState.closeWindow) — is still handed on, so a
// window always gets one dump per worker and is never silently dropped.
func (w *worker) closeWindow() {
	c := w.eng
	d := &shardDump{windowStart: w.windowStart, first: w.first, parts: make([]shardPart, len(c.aggs))}
	func() {
		defer func() {
			if r := recover(); r != nil {
				c.m.panics.Inc()
			}
		}()
		for a := range c.aggs {
			for _, st := range w.states[a] {
				st.closeWindow(&d.parts[a], &c.cfg, w.windowStart, w.windowEnd)
			}
		}
		if c.det != nil {
			for p := w.id; p < c.det.Partitions(); p += len(c.workers) {
				d.det = append(d.det, c.det.CollectWindow(p, w.windowStart, w.windowEnd))
			}
		}
	}()
	if c.merges != nil {
		c.merges <- d
		return
	}
	c.emitWindow(d.windowStart, []*shardDump{d})
}

// emitWindow turns one window's dumps, one per worker, into one snapshot
// per aggregation plus the detection layer's two, and delivers them. An
// aggregation's cache health, summed over the dumps, is published before
// its snapshot is delivered: a consumer reads the gauges of the window it
// is handed. Every worker crossed into the window at the same summary, so
// any dump's first is the window's.
func (c *core) emitWindow(windowStart float64, dumps []*shardDump) {
	start := time.Now()
	defer func() { c.m.flush.Observe(time.Since(start).Seconds()) }()
	c.delivering = dumps[0].first
	cols, kinds := snapshotSchema()
	for a, agg := range c.aggs {
		// Shard parts are key-disjoint (a key hashes to one shard), so the
		// window is their rows side by side, sorted and cut at K — one
		// worker may hold several shards, each with its slack — and their
		// counts summed.
		sum := shardPart{rows: dumps[0].parts[a].rows}
		for i, d := range dumps {
			p := &d.parts[a]
			if i > 0 {
				sum.rows = append(sum.rows, p.rows...)
			}
			sum.seenBefore += p.seenBefore
			sum.seenAfter += p.seenAfter
			sum.occupancy += p.occupancy
			sum.active += p.active
			sum.slabs += p.slabs
			sum.fresh += p.fresh
			sum.minCount = max(sum.minCount, p.minCount)
			sum.evictions += p.evictions
			sum.dropped += p.dropped
		}
		if reg := c.m.reg; reg != nil {
			publishAggMetrics(reg, agg.Name, &sum)
		}
		sortRows(sum.rows)
		if agg.K > 0 && len(sum.rows) > agg.K {
			sum.rows = sum.rows[:agg.K]
		}
		c.deliver(&tsv.Snapshot{Aggregation: agg.Name, Level: tsv.Minutely, Start: int64(windowStart),
			Columns: cols, Kinds: kinds, Windows: 1, Rows: sum.rows,
			TotalBefore: sum.seenBefore, TotalAfter: sum.seenAfter})
	}
	if c.det != nil {
		var dparts []detect.WindowPart
		for _, d := range dumps {
			dparts = append(dparts, d.det...)
		}
		if len(dparts) > 0 {
			ic, nod := c.det.MergeWindow(dparts)
			c.deliver(ic)
			c.deliver(nod)
			c.det.PublishWindow(dparts)
		}
	}
}

// deliver runs the snapshot callback, recovering a panic so a faulty
// consumer cannot kill the merger (which would wedge Close) or unwind
// the pipeline's caller in mid-close.
func (c *core) deliver(snap *tsv.Snapshot) {
	if c.onSnapshot == nil {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			c.m.panics.Inc()
		}
	}()
	c.onSnapshot(snap)
}

// FirstOfWindow returns, while a window's snapshots are being delivered,
// the Seq of the first summary that window holds — for a window that
// holds none, of the summary that opened the next one. Every summary
// ingested before it is in an earlier window, so once a consumer has
// stored every earlier window, those summaries are done with. Numbers
// mean what their one producer made them mean (dnsobs: the index of the
// transaction in its input). Call it from the snapshot callback only:
// it is read and written on the goroutine that delivers.
func (c *core) FirstOfWindow() uint64 { return c.delivering }

// RecordRejected accounts one transaction rejected before reaching the
// engine (malformed wire input the summarizer refused). Safe to call
// from any goroutine.
func (c *core) RecordRejected() {
	c.m.ingested.Inc()
	c.m.rejected.Inc()
}

// Stats returns the engine's ingest accounting. Once the stream has been
// dispatched (always, on the pipeline; on the sharded engine after Close
// or at any moment no partial batch is pending), Ingested = Accepted +
// Rejected + Shed; the pipeline never sheds. Stats reads the counters
// the engine publishes to its metrics registry, so the two views agree
// by construction.
func (c *core) Stats() EngineStats { return c.m.stats() }
