package sie

import (
	"bytes"
	"encoding/binary"
	"io"
	"net/netip"
	"testing"
	"time"

	"dnsobservatory/internal/dnswire"
	"dnsobservatory/internal/ipwire"
)

func TestVarintRoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 300, 1 << 20, 1<<63 - 1, 1 << 63, ^uint64(0)} {
		buf := binary.AppendUvarint(nil, v)
		got, n, err := readUvarint(buf)
		if err != nil || got != v || n != len(buf) {
			t.Errorf("varint %d: got %d n=%d err=%v", v, got, n, err)
		}
	}
}

func TestVarintErrors(t *testing.T) {
	if _, _, err := readUvarint(nil); err != ErrTruncatedFrame {
		t.Errorf("empty: %v", err)
	}
	if _, _, err := readUvarint([]byte{0x80, 0x80}); err != ErrTruncatedFrame {
		t.Errorf("truncated: %v", err)
	}
	over := bytes.Repeat([]byte{0xff}, 11)
	if _, _, err := readUvarint(over); err != ErrVarintOverflow {
		t.Errorf("overflow: %v", err)
	}
	// Ten bytes whose last carries bits past the 64th: this once read as
	// (0, 10, nil), so an overflowing length prefix or tag was a zero.
	tenth := append(bytes.Repeat([]byte{0x80}, 9), 0x02)
	if v, n, err := readUvarint(tenth); err != ErrVarintOverflow {
		t.Errorf("overflow in the tenth byte: got (%d, %d, %v)", v, n, err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	frames := [][]byte{[]byte("one"), {}, []byte("three is a bit longer"), bytes.Repeat([]byte{7}, 40000)}
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(&buf)
	for i, want := range frames {
		got, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("frame %d mismatch (%d vs %d bytes)", i, len(got), len(want))
		}
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Errorf("end: %v", err)
	}
}

func TestFrameReaderOneByteReads(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("dribble")); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(iotest{r: &buf})
	got, err := fr.Next()
	if err != nil || string(got) != "dribble" {
		t.Errorf("got %q err %v", got, err)
	}
}

// iotest yields one byte per Read, stressing refill paths.
type iotest struct{ r io.Reader }

func (o iotest) Read(p []byte) (int, error) { return o.r.Read(p[:1]) }

func TestFrameTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("whole frame")); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-3]
	fr := NewFrameReader(bytes.NewReader(cut))
	if _, err := fr.Next(); err != io.ErrUnexpectedEOF {
		t.Errorf("err = %v", err)
	}
}

func TestWriteFrameTooLarge(t *testing.T) {
	if err := WriteFrame(io.Discard, make([]byte, MaxFrameLen+1)); err != ErrFrameTooLarge {
		t.Errorf("err = %v", err)
	}
}

func makeTx(t *testing.T, answered bool) *Transaction {
	t.Helper()
	resolver := netip.MustParseAddr("192.0.2.10")
	ns := netip.MustParseAddr("198.51.100.53")
	q := &dnswire.Message{
		ID:        77,
		Flags:     dnswire.Flags{RecursionDesired: false},
		Questions: []dnswire.Question{{Name: "www.example.com.", Type: dnswire.TypeA, Class: dnswire.ClassINET}},
	}
	q.SetEDNS(4096, true)
	qw, err := q.Pack(nil)
	if err != nil {
		t.Fatal(err)
	}
	tx := &Transaction{
		QueryPacket: ipwire.AppendIPv4UDP(nil, resolver, ns, 40000, 53, 64, qw),
		QueryTime:   time.Unix(1554076800, 0),
		SensorID:    42,
	}
	if answered {
		r := &dnswire.Message{
			ID:    77,
			Flags: dnswire.Flags{Response: true, Authoritative: true, RCode: dnswire.RCodeNoError},
			Questions: []dnswire.Question{
				{Name: "www.example.com.", Type: dnswire.TypeA, Class: dnswire.ClassINET}},
			Answers: []dnswire.RR{{
				Name: "www.example.com.", Type: dnswire.TypeA, Class: dnswire.ClassINET,
				TTL: 300, Data: dnswire.ARData{Addr: netip.MustParseAddr("203.0.113.5")}}},
			Authority: []dnswire.RR{{
				Name: "example.com.", Type: dnswire.TypeNS, Class: dnswire.ClassINET,
				TTL: 86400, Data: dnswire.NSRData{NS: "ns1.example.com."}}},
		}
		rw, err := r.Pack(nil)
		if err != nil {
			t.Fatal(err)
		}
		tx.ResponsePacket = ipwire.AppendIPv4UDP(nil, ns, resolver, 53, 40000, 57, rw)
		tx.ResponseTime = tx.QueryTime.Add(23 * time.Millisecond)
	}
	return tx
}

func TestTransactionRoundTrip(t *testing.T) {
	tx := makeTx(t, true)
	frame := tx.Append(nil)
	var got Transaction
	if err := got.Unmarshal(frame); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.QueryPacket, tx.QueryPacket) || !bytes.Equal(got.ResponsePacket, tx.ResponsePacket) {
		t.Error("packets mismatch")
	}
	if !got.QueryTime.Equal(tx.QueryTime) || !got.ResponseTime.Equal(tx.ResponseTime) {
		t.Error("timestamps mismatch")
	}
	if got.SensorID != 42 {
		t.Errorf("sensor = %d", got.SensorID)
	}
	if got.Delay() != 23*time.Millisecond {
		t.Errorf("delay = %v", got.Delay())
	}
}

func TestTransactionUnanswered(t *testing.T) {
	tx := makeTx(t, false)
	frame := tx.Append(nil)
	var got Transaction
	if err := got.Unmarshal(frame); err != nil {
		t.Fatal(err)
	}
	if got.Answered() {
		t.Error("answered")
	}
	if got.Delay() != 0 {
		t.Errorf("delay = %v", got.Delay())
	}
}

func TestTransactionUnmarshalErrors(t *testing.T) {
	var tx Transaction
	if err := tx.Unmarshal(nil); err == nil {
		t.Error("empty frame accepted (no query packet)")
	}
	// Unknown wire type.
	if err := tx.Unmarshal([]byte{0x0d}); err != ErrUnknownField {
		t.Errorf("bad wiretype: %v", err)
	}
	// Length-delimited field longer than the frame.
	if err := tx.Unmarshal([]byte{0x0a, 0x7f, 1, 2}); err != ErrTruncatedFrame {
		t.Errorf("overlong bytes: %v", err)
	}
}

func TestTransactionUnknownFieldSkipped(t *testing.T) {
	tx := makeTx(t, false)
	frame := tx.Append(nil)
	// Append an unknown varint field 15.
	frame = appendVarintField(frame, 15, 999)
	var got Transaction
	if err := got.Unmarshal(frame); err != nil {
		t.Fatalf("unknown field not skipped: %v", err)
	}
	if !bytes.Equal(got.QueryPacket, tx.QueryPacket) {
		t.Error("payload corrupted")
	}
}

func TestStreamWriterReader(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	const n = 200
	for i := 0; i < n; i++ {
		if err := w.Write(makeTx(t, i%3 != 0)); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != n {
		t.Errorf("written = %d", w.Count())
	}
	r := NewReader(&buf)
	var tx Transaction
	var answered int
	for {
		err := r.Read(&tx)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if tx.Answered() {
			answered++
		}
	}
	if r.Count() != n {
		t.Errorf("read = %d", r.Count())
	}
	if answered != n-(n+2)/3 {
		t.Errorf("answered = %d", answered)
	}
}

func TestSummarizeAnswered(t *testing.T) {
	var s Summarizer
	var sum Summary
	if err := s.Summarize(makeTx(t, true), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Resolver != netip.MustParseAddr("192.0.2.10") || sum.Nameserver != netip.MustParseAddr("198.51.100.53") {
		t.Errorf("addrs: %v %v", sum.Resolver, sum.Nameserver)
	}
	if sum.QName != "www.example.com." || sum.QType != dnswire.TypeA || sum.QDots != 3 {
		t.Errorf("question: %q %v %d", sum.QName, sum.QType, sum.QDots)
	}
	if !sum.Answered || !sum.AA || sum.RCode != dnswire.RCodeNoError {
		t.Errorf("flags: %+v", sum)
	}
	if sum.DelayMs != 23 {
		t.Errorf("delay = %f", sum.DelayMs)
	}
	if sum.Hops != 3 { // initial 60, received 57
		t.Errorf("hops = %d", sum.Hops)
	}
	if !sum.DNSSECOK {
		t.Error("DO flag lost")
	}
	if len(sum.V4Addrs) != 1 || sum.V4Addrs[0] != netip.MustParseAddr("203.0.113.5") {
		t.Errorf("v4 = %v", sum.V4Addrs)
	}
	if sum.AuthorityNS != 1 || len(sum.NSNames) != 1 || sum.NSNames[0] != "ns1.example.com." {
		t.Errorf("authority: %+v", sum)
	}
	if len(sum.AnswerTTLs) != 1 || sum.AnswerTTLs[0] != 300 {
		t.Errorf("answer TTLs = %v", sum.AnswerTTLs)
	}
	if len(sum.NSTTLs) != 1 || sum.NSTTLs[0] != 86400 {
		t.Errorf("ns TTLs = %v", sum.NSTTLs)
	}
	if !sum.OKData() || sum.NoData() {
		t.Error("classification")
	}
	if sum.RespSize == 0 {
		t.Error("resp size")
	}
}

func TestSummarizeUnanswered(t *testing.T) {
	var s Summarizer
	var sum Summary
	if err := s.Summarize(makeTx(t, false), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Answered || sum.OKData() || sum.NoData() {
		t.Error("unanswered classified as answered")
	}
	if sum.QName != "www.example.com." {
		t.Errorf("qname = %q", sum.QName)
	}
}

func TestSummarizeNoDataWithSOA(t *testing.T) {
	resolver := netip.MustParseAddr("192.0.2.10")
	ns := netip.MustParseAddr("198.51.100.53")
	q := &dnswire.Message{
		ID:        5,
		Questions: []dnswire.Question{{Name: "v4only.example.com.", Type: dnswire.TypeAAAA, Class: dnswire.ClassINET}},
	}
	qw, _ := q.Pack(nil)
	r := &dnswire.Message{
		ID:        5,
		Flags:     dnswire.Flags{Response: true, Authoritative: true},
		Questions: q.Questions,
		Authority: []dnswire.RR{{
			Name: "example.com.", Type: dnswire.TypeSOA, Class: dnswire.ClassINET, TTL: 900,
			Data: dnswire.SOARData{MName: "ns1.example.com.", RName: "root.example.com.", Minimum: 15}}},
	}
	rw, _ := r.Pack(nil)
	tx := &Transaction{
		QueryPacket:    ipwire.AppendIPv4UDP(nil, resolver, ns, 4000, 53, 64, qw),
		ResponsePacket: ipwire.AppendIPv4UDP(nil, ns, resolver, 53, 4000, 60, rw),
		QueryTime:      time.Unix(0, 0),
		ResponseTime:   time.Unix(0, int64(5*time.Millisecond)),
	}
	var s Summarizer
	var sum Summary
	if err := s.Summarize(tx, &sum); err != nil {
		t.Fatal(err)
	}
	if !sum.NoData() {
		t.Error("not NoData")
	}
	if !sum.HasSOA || sum.SOAMinimum != 15 {
		t.Errorf("SOA minimum = %d (has=%v)", sum.SOAMinimum, sum.HasSOA)
	}
}

func TestSummarizeRejectsNonDNSPort(t *testing.T) {
	tx := makeTx(t, false)
	// Rewrite the query packet to port 5353.
	pkt, err := ipwire.Decode(tx.QueryPacket)
	if err != nil {
		t.Fatal(err)
	}
	tx.QueryPacket = ipwire.AppendIPv4UDP(nil, pkt.Src, pkt.Dst, pkt.SrcPort, 5353, 64, pkt.Payload)
	var s Summarizer
	var sum Summary
	if err := s.Summarize(tx, &sum); err != ErrNotDNSPort {
		t.Errorf("err = %v", err)
	}
}

func TestSummarizeRejectsMismatchedResponse(t *testing.T) {
	tx := makeTx(t, true)
	rp, err := ipwire.Decode(tx.ResponsePacket)
	if err != nil {
		t.Fatal(err)
	}
	// Response claims to come from a different server.
	tx.ResponsePacket = ipwire.AppendIPv4UDP(nil,
		netip.MustParseAddr("203.0.113.99"), rp.Dst, rp.SrcPort, rp.DstPort, 57, rp.Payload)
	var s Summarizer
	var sum Summary
	if err := s.Summarize(tx, &sum); err != ErrIPMismatch {
		t.Errorf("err = %v", err)
	}
}

func TestSummarizeTolerantMode(t *testing.T) {
	tx := makeTx(t, true)
	tx.ResponsePacket = tx.ResponsePacket[:10] // mangled
	s := Summarizer{KeepUnparsableResponses: true}
	var sum Summary
	if err := s.Summarize(tx, &sum); err != nil {
		t.Fatalf("tolerant mode: %v", err)
	}
	if sum.Answered {
		t.Error("mangled response counted as answered")
	}
	s.KeepUnparsableResponses = false
	if err := s.Summarize(tx, &sum); err == nil {
		t.Error("strict mode accepted mangled response")
	}
}

func TestSummarizeReusesSlices(t *testing.T) {
	var s Summarizer
	var sum Summary
	tx := makeTx(t, true)
	if err := s.Summarize(tx, &sum); err != nil {
		t.Fatal(err)
	}
	c1 := cap(sum.V4Addrs)
	if err := s.Summarize(tx, &sum); err != nil {
		t.Fatal(err)
	}
	if cap(sum.V4Addrs) != c1 {
		t.Error("V4Addrs reallocated")
	}
}
