package sie

import (
	"bytes"
	"errors"
	"net/netip"
	"testing"

	"dnsobservatory/internal/dnswire"
	"dnsobservatory/internal/hll"
)

func TestPrecomputeHashes(t *testing.T) {
	var s Summarizer
	var sum Summary
	if err := s.Summarize(makeTx(t, true), &sum); err != nil {
		t.Fatal(err)
	}
	sum.PrecomputeHashes(nil)
	if !sum.HashesReady {
		t.Fatal("HashesReady not set")
	}
	if sum.QNameHash != hll.HashString(sum.QName) {
		t.Error("QNameHash mismatch")
	}
	if sum.ResolverHash != hll.HashString(sum.Resolver.String()) {
		t.Error("ResolverHash mismatch")
	}
	if sum.NameserverHash != hll.HashString(sum.Nameserver.String()) {
		t.Error("NameserverHash mismatch")
	}
	if sum.TLDHash != hll.HashString(dnswire.TLD(sum.QName)) {
		t.Error("TLDHash mismatch")
	}
	if len(sum.V4Hashes) != len(sum.V4Addrs) {
		t.Errorf("V4Hashes: %d for %d addrs", len(sum.V4Hashes), len(sum.V4Addrs))
	}
	if sum.SensorHash != hll.HashUint64(uint64(sum.SensorID)) || sum.QTypeHash != hll.HashUint64(uint64(sum.QType)) {
		t.Error("SensorHash/QTypeHash mismatch")
	}
	// An answer address hashes as its text does, whichever way the text
	// is had: formatted on the fly (every family, a mapped address, the
	// zero Addr) or memoized by hand.
	addrs := Summary{
		V4Addrs: []netip.Addr{netip.MustParseAddr("203.0.113.5"), netip.MustParseAddr("198.51.100.255"), {}},
		V4Strs:  []string{"memo-v4"},
		V6Addrs: []netip.Addr{netip.MustParseAddr("2001:db8::1"), netip.MustParseAddr("::ffff:192.0.2.1"),
			netip.MustParseAddr("fe80::1%eth0"), netip.MustParseAddr("2001:db8:1111:2222:3333:4444:5555:6666")},
	}
	addrs.PrecomputeHashes(nil)
	for i := range addrs.V4Addrs {
		if addrs.V4Hashes[i] != hll.HashString(addrs.V4Text(i)) {
			t.Errorf("V4Hashes[%d] is not the hash of %q", i, addrs.V4Text(i))
		}
	}
	for i := range addrs.V6Addrs {
		if addrs.V6Hashes[i] != hll.HashString(addrs.V6Text(i)) {
			t.Errorf("V6Hashes[%d] is not the hash of %q", i, addrs.V6Text(i))
		}
	}
	// Idempotent: a second call must not rehash (mutate a source field
	// and confirm the memoized hash is untouched).
	qh := sum.QNameHash
	sum.QName = "other.example.net."
	sum.PrecomputeHashes(nil)
	if sum.QNameHash != qh {
		t.Error("PrecomputeHashes rehashed a frozen summary")
	}
}

func TestAddressTextFallbacks(t *testing.T) {
	var sum Summary
	sum.Nameserver = netip.MustParseAddr("198.51.100.53")
	if got := sum.NameserverText(); got != "198.51.100.53" {
		t.Errorf("NameserverText = %q", got)
	}
	sum.NameserverStr = "memoized"
	if got := sum.NameserverText(); got != "memoized" {
		t.Errorf("NameserverText with memo = %q", got)
	}
	sum.V6Addrs = append(sum.V6Addrs, netip.MustParseAddr("2001:db8::1"))
	if got := sum.V6Text(0); got != "2001:db8::1" {
		t.Errorf("V6Text = %q", got)
	}
	sum.V6Strs = append(sum.V6Strs, "memo6")
	if got := sum.V6Text(0); got != "memo6" {
		t.Errorf("V6Text with memo = %q", got)
	}
}

func TestReaderDecodeError(t *testing.T) {
	// A well-framed record whose body is not a transaction: Read must
	// return a *DecodeError, bump the process-wide counter, and leave
	// the stream in sync for the next frame.
	before := DecodeErrors()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	good := makeTx(t, false)
	if err := w.Write(good); err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	if err := WriteFrame(&stream, []byte{0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	stream.Write(buf.Bytes())

	r := NewReader(bytes.NewReader(stream.Bytes()))
	var tx Transaction
	err := r.Read(&tx)
	var de *DecodeError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *DecodeError", err)
	}
	if de.Error() == "" || de.Unwrap() == nil {
		t.Errorf("DecodeError not introspectable: %q / %v", de.Error(), de.Unwrap())
	}
	if DecodeErrors() != before+1 {
		t.Errorf("DecodeErrors = %d, want %d", DecodeErrors(), before+1)
	}
	if err := r.Read(&tx); err != nil {
		t.Fatalf("stream out of sync after DecodeError: %v", err)
	}
	if !bytes.Equal(tx.QueryPacket, good.QueryPacket) {
		t.Error("good record mangled after a bad one")
	}
	if r.Count() != 1 {
		t.Errorf("Count = %d, want 1 (bad records are not counted)", r.Count())
	}
}
