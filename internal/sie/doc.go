// Package sie models the Security Information Exchange: the passive-DNS
// sensors that reconstruct resolver↔nameserver transactions from raw
// packets, the Protocol-Buffers-style serialization they submit, and the
// channel stream the Observatory ingests (paper §2.1).
//
// Concurrency and ownership: a Reader and a Summarizer are each
// single-owner — they keep parse state between calls, so one goroutine
// each. A Summarizer interns the texts it makes (QNAME, NS targets,
// endpoint addresses) in a table of its own, so it must not be copied
// after first use: copies would share the table. Summarize reuses the
// slices of the Summary it fills, so a Summary is valid only until the
// next Summarize into it; deep-copy (or summarize into a buffer borrowed
// from the sharded engine) to keep it.
// Shared is that buffer: a Summary the engine lends out, takes back
// filled, and hands to several workers without copying; it has one
// owner at a time and nothing is counted per summary — the batch it is
// staged in returns it to the engine's pool. A Summary's strings are
// another matter: an interned string is immutable like any other, so a
// consumer may keep one (as a cache key, in a snapshot row) for as long
// as it likes. The package-wide decode error counter (DecodeErrors) is
// an atomic, exposed by the metrics layer as
// dnsobs_sie_decode_errors_total.
package sie
