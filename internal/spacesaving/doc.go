// Package spacesaving implements the Space-Saving algorithm of Metwally,
// Agrawal and El Abbadi (ICDT 2005) for tracking the top-k most frequent
// items in a stream with bounded memory — the basic tool of DNS
// Observatory (§2.2).
//
// Two departures from the textbook algorithm follow the paper:
//
//   - Each monitored object carries an exponentially decaying moving
//     average that estimates its transaction rate (hits per second), so
//     popularity reflects recent traffic rather than all-time counts.
//   - Before evicting the minimum entry for a never-seen key, an optional
//     admission filter (a Bloom filter) is consulted, so that a key must
//     be seen at least twice before it can displace a monitored object.
//     This shields the top list from incidental observations of rare keys.
//
// Evicted entries bequeath their count to the newcomer (the classic
// overestimation bound: error <= min count).
//
// A key is observed by one body (Observe), written once for the two
// views a caller may hold of it: a string, or bytes in a buffer it goes
// on to reuse. Lookup, admission and eviction do not tell them apart —
// the filter hashes both alike, and neither allocates for a key that is
// monitored or refused. They differ when a key enters the cache: a
// string is kept, bytes are copied. That is why the key functions of the
// engine stay as they are, strings where a string exists: ISSUE 21
// measured 3.10 → 3.36 allocations per transaction for staging every
// key as bytes.
//
// Caches over key-disjoint partitions of one stream compose: Merge sums
// counts and errors per key and keeps the strongest entries, which is the
// standard parallel Space-Saving merge used by the sharded ingest engine.
//
// Concurrency: a Cache is single-owner — no internal locking; the
// engine goroutine that owns the shard is the only one that touches it.
// Cache health for the metrics layer (Len, MinCount, Evictions,
// Dropped) is therefore read by that same owner at window boundaries
// and published from there.
package spacesaving
