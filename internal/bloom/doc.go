// Package bloom provides a classic Bloom filter (Bloom, 1970). The
// Observatory consults one before evicting an entry from the
// Space-Saving cache, so that one-off observations of rare keys do not
// churn the top-k list (paper §2.2); the detection layer keeps its
// newly-observed-domain seen-set in a ring of them.
//
// There is one hash: seeded FNV-1a finished by a SplitMix64 mix (Sum64),
// written once for the string and the byte view of a key. It is a pure
// function of (seed, key bytes) — no per-process randomness — so what a
// filter admits, false positives included, depends only on what it was
// fed: the same stream through the same engine leaves the same
// snapshots in any process, which is what lets the engine-vs-oracle
// goldens run with the admitter on and the detection layer promise
// byte-identical serial and sharded state. A faster keyed hash would
// do for admission alone; FNV stays because the detection snapshots on
// disk depend on these bits. The seed is not a secret: it exists so that
// two filters fed overlapping keys (the shards of one aggregation, the
// partitions of the detector) do not share their false positives.
//
// Concurrency: a Filter is a single-owner structure with no internal
// locking. Each Space-Saving cache owns its admission filter outright,
// and the sharded ingest engine gives every shard its own filter, so a
// filter is only ever touched from one goroutine at a time.
package bloom
