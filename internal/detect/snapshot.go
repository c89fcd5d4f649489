package detect

import (
	"dnsobservatory/internal/metrics"
	"dnsobservatory/internal/spacesaving"
	"dnsobservatory/internal/tsv"
)

// Metric family names published by the detection layer.
const (
	MetricObserved     = "dnsobs_detect_observed_total"
	MetricNODFirstSeen = "dnsobs_detect_nod_first_seen_total"
	MetricNODSeen      = "dnsobs_detect_nod_seen_total"
	MetricNODOverflow  = "dnsobs_detect_nod_overflow_total"
	MetricICDropped    = "dnsobs_detect_ic_dropped_total"
	MetricICEvictions  = "dnsobs_detect_ic_evictions_total"
	MetricICTracked    = "dnsobs_detect_ic_tracked"
)

// WindowPart is one partition's contribution to a window: two partial
// snapshots plus the window's counter deltas, produced by CollectWindow
// on whichever goroutine owns the partition and handed to the merger.
type WindowPart struct {
	IC  *tsv.Snapshot // partial detect_esld snapshot
	NOD *tsv.Snapshot // partial detect_nod snapshot

	// Window deltas for metric publication.
	Offered, Observed         uint64
	FirstSeen, Seen, Overflow uint64
	ICDropped, ICEvictions    uint64
	ICLen                     int
}

// CollectWindow drains partition part's window state: rows for every
// eSLD active this window (information content scored at windowEnd, so
// idle objects decay), rows for every newly observed eSLD, and the
// counter deltas since the previous collection. It resets the
// per-window state (window hit counts, NOD rows, the admission filter)
// exactly as the volume aggregations do at dump time. Only the
// partition's owner may call it.
func (d *Detector) CollectWindow(part int, windowStart, windowEnd float64) WindowPart {
	p := d.parts[part]
	ws := int64(windowStart)

	ic := &tsv.Snapshot{
		Aggregation: AggESLD,
		Level:       tsv.Minutely,
		Start:       ws,
		Columns:     icColumns,
		Kinds:       icKinds,
		Windows:     1,
	}
	p.ic.Entries(func(e *spacesaving.Entry) {
		st, _ := e.State.(*icStats)
		if st == nil || st.windowHits == 0 {
			return
		}
		ent := entropyOf(&st.hist)
		meanLen := float64(st.chars) / float64(st.samples)
		rate := p.ic.RateAt(e, windowEnd)
		ic.Rows = append(ic.Rows, tsv.Row{
			Key:    e.Key,
			Values: []float64{ent * meanLen * rate, float64(st.windowHits), rate, ent, meanLen},
		})
		st.windowHits = 0
	})

	nod := &tsv.Snapshot{
		Aggregation: AggNOD,
		Level:       tsv.Minutely,
		Start:       ws,
		Columns:     nodColumns,
		Kinds:       nodKinds,
		Windows:     1,
	}
	for key, r := range p.nod.win {
		nod.Rows = append(nod.Rows, tsv.Row{
			Key:    key,
			Values: []float64{float64(r.hits), r.firstSeen},
		})
	}
	clear(p.nod.win)

	wp := WindowPart{IC: ic, NOD: nod, ICLen: p.ic.Len()}
	wp.Offered, p.lastOffered = p.offered-p.lastOffered, p.offered
	wp.Observed, p.lastObserved = p.observed-p.lastObserved, p.observed
	wp.FirstSeen, p.lastFirstSeen = p.nod.firstSeen-p.lastFirstSeen, p.nod.firstSeen
	wp.Seen, p.lastSeen = p.nod.seen-p.lastSeen, p.nod.seen
	wp.Overflow, p.lastOverflow = p.nod.overflow-p.lastOverflow, p.nod.overflow
	wp.ICDropped, p.lastDropped = p.ic.Dropped()-p.lastDropped, p.ic.Dropped()
	wp.ICEvictions, p.lastEvictions = p.ic.Evictions()-p.lastEvictions, p.ic.Evictions()

	// The collection statistics row: pre-filter stream volume on one
	// side, eSLD observations folded into this partition on the other.
	// Summed across partitions by MergeWindow, they describe the window.
	ic.TotalBefore, ic.TotalAfter = wp.Offered, wp.Observed
	nod.TotalBefore, nod.TotalAfter = wp.Offered, wp.Observed

	p.admitter.Reset()
	return wp
}

// CollectAll runs CollectWindow over every partition, for a caller that
// owns all of them (the engines collect per worker: CollectWindow).
func (d *Detector) CollectAll(windowStart, windowEnd float64) []WindowPart {
	out := make([]WindowPart, len(d.parts))
	for i := range d.parts {
		out[i] = d.CollectWindow(i, windowStart, windowEnd)
	}
	return out
}

// MergeWindow unites the partition parts of one window (at least one)
// into the two final snapshots, ranked by descending score (detect_esld)
// and window hits (detect_nod) and cut at Config.K / Config.NODK rows.
// Partitions are key-disjoint by construction, so the window is their
// rows side by side — the merge the engines do for aggregation shards;
// since every deployment produces the same per-partition rows (see the
// package comment), the merged snapshots are byte-identical regardless
// of how partitions were grouped into workers.
func (d *Detector) MergeWindow(parts []WindowPart) (ic, nod *tsv.Snapshot) {
	ic, nod = joinHeader(parts[0].IC), joinHeader(parts[0].NOD)
	for _, p := range parts {
		join(ic, p.IC)
		join(nod, p.NOD)
	}
	ic.Rows = tsv.TopRows(ic.Rows, 0, d.cfg.K)
	nod.Rows = tsv.TopRows(nod.Rows, 0, d.cfg.NODK)
	return ic, nod
}

// joinHeader returns an empty snapshot of part's window and schema.
func joinHeader(part *tsv.Snapshot) *tsv.Snapshot {
	return &tsv.Snapshot{Aggregation: part.Aggregation, Level: part.Level, Start: part.Start,
		Columns: part.Columns, Kinds: part.Kinds, Windows: part.Windows}
}

// join adds a key-disjoint part's rows and collection statistics to dst.
func join(dst, part *tsv.Snapshot) {
	dst.Rows = append(dst.Rows, part.Rows...)
	dst.TotalBefore += part.TotalBefore
	dst.TotalAfter += part.TotalAfter
}

// PublishWindow folds one window's counter deltas into the
// dnsobs_detect_* metric families. Call it where a window's parts come
// together (the engines' emit), never from concurrent workers.
func (d *Detector) PublishWindow(parts []WindowPart) {
	var w WindowPart
	tracked := 0
	for _, p := range parts {
		w.Observed += p.Observed
		w.FirstSeen += p.FirstSeen
		w.Seen += p.Seen
		w.Overflow += p.Overflow
		w.ICDropped += p.ICDropped
		w.ICEvictions += p.ICEvictions
		tracked += p.ICLen
	}
	m := d.m
	m.observed.Add(w.Observed)
	m.nodFirstSeen.Add(w.FirstSeen)
	m.nodSeen.Add(w.Seen)
	m.nodOverflow.Add(w.Overflow)
	m.icDropped.Add(w.ICDropped)
	m.icEvictions.Add(w.ICEvictions)
	m.icTracked.Set(float64(tracked))
}

// Counters is the cumulative accounting of a Detector, for invariant
// checks: Observed == FirstSeen+Seen+Overflow == ICHits always holds,
// and Offered >= Observed (transactions without an eSLD are offered but
// not observed). Read it only while no goroutine is observing.
type Counters struct {
	Offered, Observed         uint64
	FirstSeen, Seen, Overflow uint64
	ICHits, ICDropped         uint64
}

// Counters sums the per-partition counters. Quiescent callers only.
func (d *Detector) Counters() Counters {
	var c Counters
	for _, p := range d.parts {
		c.Offered += p.offered
		c.Observed += p.observed
		c.FirstSeen += p.nod.firstSeen
		c.Seen += p.nod.seen
		c.Overflow += p.nod.overflow
		c.ICHits += p.ic.Hits()
		c.ICDropped += p.ic.Dropped()
	}
	return c
}

// detectMetrics mirrors the engineMetrics convention: with a registry
// the counters are registered families; a nil one hands out standalone
// counters, so the publish path never nil-checks.
type detectMetrics struct {
	observed     *metrics.Counter
	nodFirstSeen *metrics.Counter
	nodSeen      *metrics.Counter
	nodOverflow  *metrics.Counter
	icDropped    *metrics.Counter
	icEvictions  *metrics.Counter
	icTracked    *metrics.Gauge
}

func newDetectMetrics(reg *metrics.Registry) *detectMetrics {
	return &detectMetrics{
		observed:     reg.Counter(MetricObserved, "eSLD observations folded into the detection layer"),
		nodFirstSeen: reg.Counter(MetricNODFirstSeen, "eSLDs newly observed within the NOD horizon"),
		nodSeen:      reg.Counter(MetricNODSeen, "eSLD observations already present in the NOD seen-set"),
		nodOverflow:  reg.Counter(MetricNODOverflow, "first-seen events beyond the per-window row cap"),
		icDropped:    reg.Counter(MetricICDropped, "observations refused by the information-content admission filter"),
		icEvictions:  reg.Counter(MetricICEvictions, "information-content top-k minimum displacements"),
		icTracked:    reg.Gauge(MetricICTracked, "eSLDs currently tracked by the information-content cache"),
	}
}
