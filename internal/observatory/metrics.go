package observatory

import (
	"dnsobservatory/internal/hll"
	"dnsobservatory/internal/metrics"
	"dnsobservatory/internal/sie"
)

// Metric family names published by the ingest engines. Exported as
// constants so consumers (web UI health checks, the dnsobs self-report)
// read families by name without string drift.
const (
	MetricIngested    = "dnsobs_engine_ingested_total"
	MetricAccepted    = "dnsobs_engine_accepted_total"
	MetricRejected    = "dnsobs_engine_rejected_total"
	MetricShed        = "dnsobs_engine_shed_total"
	MetricPanics      = "dnsobs_engine_panics_total"
	MetricQuarantined = "dnsobs_engine_quarantined_total"
	MetricFlush       = "dnsobs_engine_flush_seconds"
	MetricQueueDepth  = "dnsobs_engine_queue_depth"

	MetricTopkOccupancy = "dnsobs_topk_occupancy"
	MetricTopkActive    = "dnsobs_topk_active"
	MetricTopkSlabs     = "dnsobs_topk_slabs"
	MetricTopkFresh     = "dnsobs_topk_fresh"
	MetricTopkMinCount  = "dnsobs_topk_min_count"
	MetricTopkEvictions = "dnsobs_topk_evictions_total"
	MetricTopkDropped   = "dnsobs_topk_dropped_total"
)

// engineMetrics is the ingest accounting every engine keeps. The
// counters are the single source of truth — Stats() reads them — so
// registry totals and EngineStats can never disagree. With a registry
// configured the counters are registered under one engine label; a nil
// one hands out standalone counters, so hot paths never nil-check and
// engines in tests do not cross-contaminate a shared registry.
type engineMetrics struct {
	// reg is read for one thing: whether anybody will see the
	// per-aggregation gauges, which cost a sum over the dumps to publish.
	reg         *metrics.Registry
	ingested    *metrics.Counter
	accepted    *metrics.Counter
	rejected    *metrics.Counter
	shed        *metrics.Counter
	panics      *metrics.Counter
	quarantined *metrics.Counter
	flush       *metrics.Histogram
}

// newEngineMetrics builds the counter set for one engine instance.
func newEngineMetrics(reg *metrics.Registry, engine string) *engineMetrics {
	return &engineMetrics{
		reg:         reg,
		ingested:    reg.Counter(MetricIngested, "transactions offered to the platform, including rejects", "engine", engine),
		accepted:    reg.Counter(MetricAccepted, "summaries dispatched into aggregation state", "engine", engine),
		rejected:    reg.Counter(MetricRejected, "malformed transactions refused before feature extraction", "engine", engine),
		shed:        reg.Counter(MetricShed, "summaries dropped by the overload policy", "engine", engine),
		panics:      reg.Counter(MetricPanics, "recovered worker panics", "engine", engine),
		quarantined: reg.Counter(MetricQuarantined, "summary folds abandoned to a panic", "engine", engine),
		flush:       reg.Histogram(MetricFlush, "window snapshot flush latency", metrics.DurationBuckets, "engine", engine),
	}
}

// stats assembles EngineStats from the counters.
func (m *engineMetrics) stats() EngineStats {
	return EngineStats{
		Ingested:    m.ingested.Value(),
		Accepted:    m.accepted.Value(),
		Rejected:    m.rejected.Value(),
		Shed:        m.shed.Value(),
		Panics:      m.panics.Value(),
		Quarantined: m.quarantined.Value(),
	}
}

// publishAggMetrics publishes one aggregation's cache health from the
// part(s) its window close collected: live occupancy, how many of those
// keys the window just closed folded, how many of these took more hits
// than a record log holds and how many were too new to report, and
// min-count (the overestimation bound), plus the eviction and
// admission-drop deltas since the close before. Engines call it at
// window-dump time, the only moment the publisher has exclusive access
// to the cache counters (workers own their caches; the sharded engine
// sums shard parts on the merger before publishing).
func publishAggMetrics(reg *metrics.Registry, agg string, part *shardPart) {
	reg.Gauge(MetricTopkOccupancy, "monitored keys across the aggregation's top-k cache(s)", "agg", agg).Set(float64(part.occupancy))
	reg.Gauge(MetricTopkActive, "monitored keys that took hits in the window just closed", "agg", agg).Set(float64(part.active))
	reg.Gauge(MetricTopkSlabs, "monitored keys that closed the window holding a full feature set, not a record log", "agg", agg).Set(float64(part.slabs))
	reg.Gauge(MetricTopkFresh, "monitored keys that closed the window too new to report: their hits were counted and folded nowhere", "agg", agg).Set(float64(part.fresh))
	reg.Gauge(MetricTopkMinCount, "smallest monitored count — the frequency overestimation bound", "agg", agg).Set(float64(part.minCount))
	if part.evictions > 0 {
		reg.Counter(MetricTopkEvictions, "top-k minimum-entry displacements", "agg", agg).Add(part.evictions)
	}
	if part.dropped > 0 {
		reg.Counter(MetricTopkDropped, "observations refused by the Bloom admission filter", "agg", agg).Add(part.dropped)
	}
}

// InstrumentPlatform registers the process-wide platform counters that
// live below the engines — layers deliberately kept dependency-free
// (hll, sie) expose plain counters, and this adapter publishes them.
// Call it once alongside wiring Config.Metrics.
func InstrumentPlatform(reg *metrics.Registry) {
	reg.CounterFunc("dnsobs_hll_promotions_total",
		"HyperLogLog promotions from the in-struct array to dense registers (a sketch's 33rd register of a window) across all sketches", hll.Promotions)
	reg.CounterFunc("dnsobs_sie_decode_errors_total",
		"well-framed SIE records that failed to decode", sie.DecodeErrors)
}
