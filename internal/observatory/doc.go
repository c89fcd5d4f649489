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
// Three ingest engines share the same aggregation state machinery:
//
//   - Pipeline: the serial reference implementation.
//   - Parallel: one goroutine per aggregation (the legacy fan-out; kept
//     as a comparison baseline).
//   - Sharded: key-hash-sharded workers with pooled summary buffers and
//     mergeable per-shard snapshots — the production shape.
//
// Concurrency and ownership: a Pipeline is single-owner (one producer
// goroutine, which also runs dumps). Parallel and Sharded accept one
// producer on Ingest — Sharded accepts any number — and do their own
// internal synchronization; snapshot callbacks run on engine goroutines
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
