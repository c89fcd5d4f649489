// Package hll implements the HyperLogLog cardinality estimator with the
// practical improvements of Heule, Nunkesser and Hall (EDBT 2013) that
// the paper cites [30]: a 64-bit hash function (removing the large-range
// correction entirely), linear counting for the small range, and a
// sparse representation for low-cardinality sketches. The Observatory
// uses HLL for per-object set-cardinality features such as qnames, tlds,
// eslds, ip4s and ip6s (§2.3); the vast majority of Top-k objects sit in
// the tail and see only a handful of distinct values per window, so the
// sparse form cuts per-object feature memory by an order of magnitude.
//
// A sketch starts sparse: observations are packed (register, rank) pairs
// kept as a small insertion buffer plus a sorted, deduplicated list.
// Once the sparse list would cost as much memory as the dense register
// array it promotes to classic 2^p byte registers. Estimates are
// identical in both forms. The dense form maintains its register rank
// histogram incrementally, so Estimate never scans the register array.
// Up to the promotion threshold of m/4 registers the histogram formula
// always takes its linear-counting branch, m ln(m / (m - n)), which
// depends on the number n of registers set and not on their ranks, so a
// sparse sketch's Estimate is a lookup of that expression by n in a
// per-precision table: it sorts, merges and allocates nothing, and
// leaves the sketch as it found it. The two sparse lists are disjoint
// by register, so n is the sum of their lengths.
//
// Concurrency: a Sketch is single-owner, like the feature Set that
// embeds it. The one piece of shared state is the process-wide
// sparse→dense promotion counter (Promotions), an atomic that sketches
// on any goroutine bump and that the metrics layer exposes as
// dnsobs_hll_promotions_total.
package hll
