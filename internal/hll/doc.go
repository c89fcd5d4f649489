// Package hll implements the HyperLogLog cardinality estimator with the
// practical improvements of Heule, Nunkesser and Hall (EDBT 2013) that
// the paper cites [30]: a 64-bit hash function (removing the large-range
// correction entirely), linear counting for the small range, and a
// compact representation for low-cardinality sketches. The Observatory
// uses HLL for per-object set-cardinality features such as qnames, tlds,
// eslds, ip4s and ip6s (§2.3); most sketches of most Top-k objects see a
// handful of distinct values per window, and most adds repeat a value
// the sketch has just seen.
//
// An add therefore costs what is new. It first compares the hash with
// the one the sketch was handed last: adding is idempotent, so a repeat
// is skipped without looking at a register. A sketch starts small: up to
// 32 packed (register, rank) pairs in an unsorted array inside the
// struct, scanned linearly — no heap, no sorting, no compaction. The
// 33rd distinct register (the (m/4+1)th at precisions under 7) promotes
// it to classic 2^p byte registers, allocated at a sketch's first
// promotion and kept across Reset. Estimates are identical in both
// forms: the dense form maintains its register rank histogram
// incrementally, so Estimate never scans the register array, and up to
// m/4 registers the histogram formula always takes its linear-counting
// branch, m ln(m / (m - n)), which depends on the number n of registers
// set and not on their ranks — so a small sketch's Estimate is a lookup
// of that expression by n in a per-precision table, and leaves the
// sketch as it found it.
//
// Concurrency: a Sketch is single-owner, like the feature Set that
// embeds it. The one piece of shared state is the process-wide
// small→dense promotion counter (Promotions), an atomic that sketches
// on any goroutine bump and that the metrics layer exposes as
// dnsobs_hll_promotions_total.
package hll
