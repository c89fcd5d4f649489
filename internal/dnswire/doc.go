// Package dnswire implements the DNS wire format (RFC 1035 and friends):
// domain-name encoding with message compression, header and flag packing,
// resource records for the record types observed by DNS Observatory
// (A, NS, CNAME, SOA, PTR, MX, TXT, AAAA, SRV, DS, RRSIG) and the EDNS0
// OPT pseudo-record (RFC 6891).
//
// There is one parser, Walk: it validates a message in place and hands a
// Visitor offsets and decoded scalars, allocating nothing itself. A
// Message can be unpacked repeatedly into the same value — Unpack is
// Walk with a visitor that materializes every name and RDATA, so it
// reuses the section slices but allocates per record; consumers that
// need a few fields (sie.Summarizer) visit the message directly.
//
// Concurrency: a Message is single-owner — the section-slice reuse means
// one goroutine per Message. Give each worker its own Message value;
// the package itself holds no shared state.
package dnswire
