// Package sie models the Security Information Exchange: the passive-DNS
// sensors that reconstruct resolver↔nameserver transactions from raw
// packets, the Protocol-Buffers-style serialization they submit, and the
// channel stream the Observatory ingests (paper §2.1).
//
// Concurrency and ownership: a Reader and a Summarizer are each
// single-owner — they keep parse state between calls, so one goroutine
// each. Summarize reuses the slices of the Summary it fills, so a
// Summary is valid only until the next Summarize into it; deep-copy (or
// summarize into a buffer borrowed from the sharded engine) to keep it.
// Shared is that buffer: a Summary the engine lends out, takes back
// filled, and hands to several workers without copying; it has one
// owner at a time and nothing is counted per summary — the batch it is
// staged in returns it to the engine's pool. The package-wide decode
// error counter (DecodeErrors) is an atomic, exposed by the metrics
// layer as dnsobs_sie_decode_errors_total.
package sie
