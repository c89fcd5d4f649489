// Package features implements the per-object traffic statistics of paper
// §2.3: counters for RCODE and section shapes, averages for QNAME depth
// and section sizes, HyperLogLog cardinalities for name/address sets,
// top-TTL trackers and quartile histograms for delays, hops and sizes.
//
// Observe folds a transaction summary into a Set, Values/AppendValues
// extract the row for the TSV time series, and Reset clears the
// statistics without releasing the sketches, so an engine can hand the
// same Set to one object after another (§2.4 resets the statistics and
// keeps the top-k list). Prepare does, once per transaction, what every
// Observe of it would otherwise repeat: it memoizes on the summary the
// hashes of the fields the sketches count and the histogram buckets of
// its delay, hops and size. A Set is ~5 KB; an Obs is the 136-byte record of
// exactly what Observe reads from one summary, for engines that hold an
// object's first few transactions of a window back and give it a Set
// only when it has earned one: From records a summary or refuses it
// (never truncates), Fill turns the record back into Observe's operand,
// and Observe itself stays the one implementation of every feature.
//
// Ownership and concurrency: Sets and Obs records have no internal
// locking and belong to whoever holds them. In the observatory engines
// that is the aggregation state that owns the cache entry's shard — the
// pipeline goroutine in the serial and parallel engines, one worker in
// the sharded engine — which leases a Set to an entry for the windows in
// which the entry is busy and takes it back when the window closes or
// the entry is evicted; sets never migrate between shards. The
// preparation contract: hashes and bucket hints are written by one
// Prepare (or PrecomputeHashes) before a summary is shared and are
// read-only after — Prepare itself leaves a summary alone once its
// hashes are marked ready, and Observe, From and Fill only read it — so
// one summary may feed many owners concurrently. Hashes are trusted
// once marked ready (whoever marks a hand-built summary ready must have
// set them all); bucket hints are never trusted, only checked, so a
// summary prepared by hand, for histograms of another shape, or not at
// all still folds exactly.
package features
