// Package spine is the Observatory's one pipeline (paper §2): each
// transaction is summarized, folded by the engine into the Top-k of every
// aggregation and dumped as one snapshot per window, and each window is
// stored, then cascaded minutely → 10-minutely → hourly under the store's
// retention policy. The cascade's levels build on minute windows: an
// engine configured for windows of another length (Table 4 uses 240 s)
// has them stored, not cascaded, and as retention only deletes windows
// an upper level has absorbed, the store's Retain keeps none of them
// from piling up. cmd/dnsobs,
// analysis.RunWith (so every figure), the detect experiment and the
// examples drive it; DESIGN.md "One spine" states when windows settle.
//
// A session is push-style: Open, one Ingest per transaction (Reject for
// one the caller could not decode), Close. The caller keeps the source
// and the clock.
//
// Concurrency: Ingest, Reject, Close and Abort belong to one goroutine.
// The worker shape delivers windows on a goroutine of its own, which
// stores and settles them with no lock held; a mutex guards only the
// first failure. The engine's RecordRejected may be called from
// anywhere.
package spine
