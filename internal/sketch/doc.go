// Package sketch provides the small summary structures behind the
// Observatory's traffic features (§2.3): counters and averages, a
// log-bucketed histogram with quantile queries (resp_delays,
// network_hops, resp_size), and a top-N value tracker with counts
// (the top-3 TTL values and their distributions).
//
// A histogram tracks the range of buckets it has counted into: its
// quartiles come from one pass over that range, and Reset clears that
// range only, so a window's cost follows what the window observed and
// not the ~80 buckets of a delay histogram. Histograms of one shape
// share their bucket bounds, so a value observed into many of them has
// one bucket: a caller may find it once (Bucket) and pass it along
// (ObserveAt) as a hint, which every histogram checks against its own
// bounds — two comparisons — before it takes it, and searches for
// itself otherwise. There is one observe path; a wrong hint costs time,
// never a count in the wrong bucket.
//
// Concurrency: every structure here is single-owner, embedded in a
// features.Set and touched only by the goroutine that owns the
// corresponding top-k entry. No internal locking.
package sketch
