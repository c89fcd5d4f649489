// Package detect is the streaming detection layer: analytics that rank
// DNS objects by signals volume-ordered top-k (the Observatory paper's
// view, §2.3) structurally misses.
//
// Two detectors share one ingest path:
//
//   - Information-content heavy hitters: per-eSLD streaming state that
//     combines a character-distribution entropy estimate over observed
//     subdomain labels with an exponentially decayed query rate, ranked
//     by score = entropy × mean subdomain length × rate (bits per
//     second). This is the information-based heavy-hitter ranking of
//     "Information-Based Heavy Hitters for Real-Time DNS Data
//     Exfiltration Detection" (PAPERS.md): low-and-slow exfiltration
//     carries few queries but near-maximal bits per query, so it ranks
//     high here while staying invisible to volume top-k. State is
//     bounded by a Space-Saving cache per partition.
//
//   - Newly-observed domains (NOD): a time-bucketed rotating seen-set of
//     Bloom filters over eSLDs, emitting a first-seen row for every
//     eSLD absent from the whole horizon, per "A Study of Newly
//     Observed Hostnames and DNS Tunneling in the Wild" (PAPERS.md).
//     Presence refreshes on every observation, so the horizon is
//     "since last seen", not "since first seen".
//
// # Determinism and concurrency contract
//
// A Detector is ALWAYS internally split into Config.Partitions
// fixed partitions routed by an FNV-1a hash of the eSLD — the same
// routing in every deployment. The serial pipeline observes all
// partitions from one goroutine (Observe); the sharded engine assigns
// each partition to exactly one worker (AppendKey on the dispatcher,
// ObservePartition on the owning worker). Both end in the one observe
// body, which takes the eSLD as the string the serial path extracted or
// as the bytes the dispatcher staged. Because each partition sees the
// identical sub-stream either way, and the one hash there is (bloom's,
// a function of a per-partition seed and the key's bytes, the same for
// either view) is deterministic, the merged window snapshots
// (MergeWindow over CollectWindow parts) are byte-identical between a
// serial and a sharded deployment of the same Config — the same
// contract spacesaving.Merge gives the volume aggregations.
//
// No method is safe for concurrent use on the same partition: callers
// must guarantee one goroutine per partition (the sharded engine's
// ownership discipline) or one goroutine total (serial). CollectWindow
// and PublishWindow run on the window-dump path, where the caller
// already holds exclusive access.
package detect
