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
// There is one engine core (core.go) — the window state machine, the
// worker-side close, the emit, the accounting — and two ways in:
//
//   - Pipeline: one worker, one shard of capacity K per aggregation, fed
//     inline on the caller's goroutine. No goroutines, and synchronous:
//     a window's snapshots are delivered inside the Ingest or Flush call
//     that closes it.
//   - Sharded: key-hash shards dealt to worker goroutines, fed through
//     batches of pooled summary buffers, a merger goroutine reuniting the
//     per-worker parts of each window — the production shape. A batch
//     owns the summaries staged in it: the workers only read them, and
//     the last worker to finish the batch returns them to the pool with
//     it, so nothing is counted per summary.
//
// Both are functions of their input: the same stream through the same
// shape leaves the same snapshots in any process. The one source of
// chance there was, the hash seed of a Bloom admitter, is now derived
// from the aggregation's name and the shard's index (newAggState).
//
// Concurrency and ownership: a Pipeline is single-owner (one producer
// goroutine, which also runs the closes and the snapshot callbacks).
// Sharded accepts any number of producers and does its own internal
// synchronization; its snapshot callbacks run on the merger goroutine
// and must not call back into the engine. Aggregation state (cache,
// record blocks, feature sets, pools) is only ever touched by the
// goroutine that owns its shard, which is what lets the per-object
// structures stay lock-free. spacesaving.Entry.State is engine-private:
// the caches Pipeline.Cache, Sharded.Caches and MergedTop expose are for
// reading keys, counts and rates; what hangs off State, and whether
// anything does, changes with every fold and close, and its dynamic type
// is not API.
//
// Observability: set Config.Metrics to publish engine counters
// (ingested/accepted/rejected/shed/panics/quarantined), flush-latency
// histograms, queue depth and per-aggregation top-k health into a
// metrics.Registry; nil keeps the same hot path with unregistered
// counters. EngineStats reads from those same counters, so Stats() and
// /metrics can never disagree. InstrumentPlatform registers the
// process-wide hll and sie counters alongside.
package observatory
