// Package observatory is the DNS Observatory stream-analytics pipeline
// (paper §2): it ingests transaction summaries, tracks Top-k DNS objects
// per aggregation with Space-Saving caches guarded by Bloom admission
// filters, accumulates per-object traffic features, and every 60 seconds
// dumps a TSV snapshot per aggregation — resetting the statistics but
// keeping the top-k lists. Closing a window visits the entries the
// window folded (each aggregation state lists them as they take their
// first hit), not the whole cache, and feature memory follows the same
// rule: a monitored object holds nothing while its window has no hits, a
// block of by-value records (features.Obs) for its first three, and a
// features.Set once it outgrows that; the close and an eviction hand
// either back to the aggregation state's pools (DESIGN.md, "Feature
// state lifecycle").
//
// There is one engine type, Engine, over one core (core.go): the window
// state machine, the worker-side close, the emit and the accounting. New
// builds its inline shape: one worker and one shard of capacity K per
// aggregation, fed on the caller's goroutine with no goroutine of its
// own, so a window's snapshots are delivered inside the call that closes
// it. NewSharded builds its worker shape, the production one: key-hash
// shards dealt to worker goroutines, fed in batches of pooled summary
// buffers that the batch owns, and a merger goroutine reuniting each
// window's parts (sharded.go). Both have one surface: Ingest, Borrow,
// IngestShared, Discard, Close. A full worker queue blocks dispatch: the
// engine never drops a summary (shedding is the collector's policy).
//
// Both shapes are functions of their input: the same stream through the
// same shape leaves the same snapshots in any process, since a Bloom
// admitter's hash seed is derived from the aggregation's name and the
// shard's index (newAggState).
//
// Concurrency and ownership: the inline shape is single-owner (one
// producer goroutine, which also runs the closes and the snapshot
// callbacks). The worker shape accepts any number of producers; its
// snapshot callbacks run on the merger goroutine and must not call back
// into the engine. Aggregation state (cache, record blocks, feature
// sets, pools) is only ever touched by the goroutine that owns its
// shard, so the per-object structures stay lock-free. None of that state
// is API: what the engine tracked is read from the snapshots it emits,
// or from the store they go into, never from its live caches.
//
// Observability: set Config.Metrics to publish engine counters
// (ingested/accepted/rejected/panics/quarantined), flush-latency
// histograms, queue depth and per-aggregation top-k health into a
// metrics.Registry; nil keeps the same hot path with unregistered
// counters. EngineStats reads from those same counters, so Stats() and
// /metrics can never disagree. InstrumentPlatform registers the
// process-wide hll and sie counters alongside.
package observatory
