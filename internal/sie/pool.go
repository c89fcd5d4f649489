package sie

// Shared is a Summary buffer the sharded ingest engine lends out
// (Borrow) and takes back filled (IngestShared) or unused (Discard). It
// is how one transaction reaches many workers without a deep copy per
// consumer: the buffer is frozen once handed in, every worker reads it
// concurrently, and it has one owner at a time — the borrower, then the
// batch it was staged in, which returns it to the engine's pool when the
// last worker has finished the batch. Nothing is counted per summary.
type Shared struct {
	Summary
}

// CopyFrom overwrites the buffer with src, reusing the buffer's slice
// capacity — zero heap allocations once the buffer is warm. String fields
// share src's immutable backing data; only slices are copied.
func (s *Shared) CopyFrom(src *Summary) {
	v4 := s.Summary.V4Addrs[:0]
	v6 := s.Summary.V6Addrs[:0]
	v4s := s.Summary.V4Strs[:0]
	v6s := s.Summary.V6Strs[:0]
	v4h := s.Summary.V4Hashes[:0]
	v6h := s.Summary.V6Hashes[:0]
	attl := s.Summary.AnswerTTLs[:0]
	nsttl := s.Summary.NSTTLs[:0]
	nsn := s.Summary.NSNames[:0]
	s.Summary = *src
	s.Summary.V4Addrs = append(v4, src.V4Addrs...)
	s.Summary.V6Addrs = append(v6, src.V6Addrs...)
	s.Summary.V4Strs = append(v4s, src.V4Strs...)
	s.Summary.V6Strs = append(v6s, src.V6Strs...)
	s.Summary.V4Hashes = append(v4h, src.V4Hashes...)
	s.Summary.V6Hashes = append(v6h, src.V6Hashes...)
	s.Summary.AnswerTTLs = append(attl, src.AnswerTTLs...)
	s.Summary.NSTTLs = append(nsttl, src.NSTTLs...)
	s.Summary.NSNames = append(nsn, src.NSNames...)
}
