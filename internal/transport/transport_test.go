package transport

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"testing"
	"time"

	"dnsobservatory/internal/metrics"
	"dnsobservatory/internal/sie"
	"dnsobservatory/internal/wal"
)

// testTx builds a minimal transaction (transport does not care whether
// the packets parse as DNS — that is the summarizer's job upstack).
func testTx(i int) *sie.Transaction {
	return &sie.Transaction{
		QueryPacket:    []byte(fmt.Sprintf("query-%04d", i)),
		ResponsePacket: []byte(fmt.Sprintf("resp-%04d", i)),
		QueryTime:      time.Unix(1600000000, int64(i)*1e6),
		ResponseTime:   time.Unix(1600000000, int64(i)*1e6+5e6),
		SensorID:       7,
	}
}

// frameOpaque is a frame type the codec tests carry payloads under: the
// frame reader does not interpret types, and 0x02 — once the
// unsequenced Data frame, now reserved — is one no codec helper builds.
const frameOpaque = 0x02

func TestFrameRoundTrip(t *testing.T) {
	var wire []byte
	wire = AppendHelloEpoch(wire, "s1", 1)
	payloads := [][]byte{[]byte("a"), {}, bytes.Repeat([]byte("xy"), 5000)}
	for _, p := range payloads {
		wire = AppendFrame(wire, frameOpaque, p)
	}
	wire = AppendFrame(wire, FrameBye, nil)

	fr := NewFrameReader(bytes.NewReader(wire))
	typ, p, err := fr.Next()
	if err != nil || typ != FrameHello {
		t.Fatalf("hello: typ=%d err=%v", typ, err)
	}
	name, epoch, err := ParseHello(p)
	if err != nil || name != "s1" || epoch != 1 {
		t.Fatalf("hello name=%q epoch=%d err=%v", name, epoch, err)
	}
	for i, want := range payloads {
		typ, p, err = fr.Next()
		if err != nil || typ != frameOpaque {
			t.Fatalf("frame %d: typ=%d err=%v", i, typ, err)
		}
		if !bytes.Equal(p, want) {
			t.Fatalf("frame %d: payload %d bytes, want %d", i, len(p), len(want))
		}
	}
	typ, _, err = fr.Next()
	if err != nil || typ != FrameBye {
		t.Fatalf("bye: typ=%d err=%v", typ, err)
	}
	if _, _, err = fr.Next(); err != io.EOF {
		t.Fatalf("after bye: err=%v, want io.EOF", err)
	}
}

func TestFrameDecoderTypedErrors(t *testing.T) {
	cases := []struct {
		name string
		wire []byte
		want error
	}{
		{"clean EOF", nil, io.EOF},
		{"unknown type", []byte{0x7f, 0x00}, ErrUnknownFrameType},
		{"truncated length prefix", []byte{frameOpaque, 0x80}, io.ErrUnexpectedEOF},
		{"missing length prefix", []byte{frameOpaque}, io.ErrUnexpectedEOF},
		{"mid-frame EOF", append([]byte{frameOpaque, 0x10}, []byte("short")...), io.ErrUnexpectedEOF},
		{"oversized declared length", []byte{frameOpaque, 0x80, 0x80, 0x80, 0x80, 0x01}, ErrFrameTooLarge},
		{"varint overflow", []byte{frameOpaque, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, ErrVarintOverflow},
	}
	for _, tc := range cases {
		_, _, err := NewFrameReader(bytes.NewReader(tc.wire)).Next()
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestParseHelloErrors(t *testing.T) {
	if _, _, err := ParseHello(nil); !errors.Is(err, ErrBadHello) {
		t.Errorf("empty hello: %v", err)
	}
	if _, _, err := ParseHello([]byte{ProtocolVersionSeq}); !errors.Is(err, ErrBadHello) {
		t.Errorf("one-byte hello: %v", err)
	}
	if _, _, err := ParseHello(append([]byte{99}, "x"...)); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version: %v", err)
	}
	// Version 1 was [1][sensor name], no epoch: gone with its last sender.
	if _, _, err := ParseHello(append([]byte{1}, "s1"...)); !errors.Is(err, ErrBadVersion) {
		t.Errorf("v1 hello: %v", err)
	}
	if _, _, err := ParseHello(append([]byte{ProtocolVersionSeq, 0}, "s1"...)); !errors.Is(err, ErrBadHello) {
		t.Errorf("epoch-0 hello: %v", err)
	}
	long := append([]byte{ProtocolVersionSeq, 0x07}, bytes.Repeat([]byte("n"), MaxHelloName+1)...)
	if _, _, err := ParseHello(long); !errors.Is(err, ErrBadHello) {
		t.Errorf("oversized name: %v", err)
	}
	if _, _, err := ParseHello([]byte{ProtocolVersionSeq, 0x80}); !errors.Is(err, ErrBadHello) {
		t.Errorf("truncated epoch: %v", err)
	}
	if _, _, err := ParseHello([]byte{ProtocolVersionSeq, 0x07}); !errors.Is(err, ErrBadHello) {
		t.Errorf("nameless hello: %v", err)
	}
	name, epoch, err := ParseHello(AppendHelloEpoch(nil, "s9", 1<<40)[2:])
	if err != nil || name != "s9" || epoch != 1<<40 {
		t.Errorf("hello round trip: name=%q epoch=%d err=%v", name, epoch, err)
	}
}

func TestSplitAddr(t *testing.T) {
	for _, tc := range []struct{ in, network, address string }{
		{"localhost:8054", "tcp", "localhost:8054"},
		{"tcp:127.0.0.1:9", "tcp", "127.0.0.1:9"},
		{"unix:/tmp/x.sock", "unix", "/tmp/x.sock"},
		{":8054", "tcp", ":8054"},
	} {
		n, a := SplitAddr(tc.in)
		if n != tc.network || a != tc.address {
			t.Errorf("SplitAddr(%q) = %q,%q want %q,%q", tc.in, n, a, tc.network, tc.address)
		}
	}
}

// drain collects everything from the collector channel until it closes.
func drain(c *Collector) []*sie.Transaction {
	var out []*sie.Transaction
	for tx := range c.C() {
		out = append(out, tx)
	}
	return out
}

// startCollector serves cfg on a loopback TCP listener.
func startCollector(t testing.TB, cfg CollectorConfig) (*Collector, string) {
	t.Helper()
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollector(cfg)
	go c.Serve(ln)
	return c, ln.Addr().String()
}

func TestSensorToCollectorTCP(t *testing.T) {
	reg := metrics.NewRegistry()
	coll, addr := startCollector(t, CollectorConfig{Metrics: reg})
	got := make(chan []*sie.Transaction, 1)
	go func() { got <- drain(coll) }()

	s := NewSensor(SensorConfig{Addr: addr, Name: "unit", Metrics: reg})
	const n = 200
	for i := 0; i < n; i++ {
		if err := s.Write(testTx(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return coll.Stats().Frames == n })
	coll.Close()
	txs := <-got

	if len(txs) != n {
		t.Fatalf("received %d transactions, want %d", len(txs), n)
	}
	for i, tx := range txs {
		want := testTx(i)
		if !bytes.Equal(tx.QueryPacket, want.QueryPacket) ||
			!tx.QueryTime.Equal(want.QueryTime) || tx.SensorID != want.SensorID {
			t.Fatalf("transaction %d mangled in transit: %+v", i, tx)
		}
	}
	if st := s.Stats(); st.Connects != 1 || st.Reconnects != 0 || st.Frames != n {
		t.Errorf("sensor stats: %+v", st)
	}
	sensors := coll.Sensors()
	if len(sensors) != 1 || sensors[0].Name != "unit" {
		t.Fatalf("sensors: %+v", sensors)
	}
	if sensors[0].Connected || sensors[0].Frames != n || sensors[0].Connects != 1 {
		t.Errorf("sensor status after close: %+v", sensors[0])
	}
	if got := reg.SumCounter(MetricFrames); got != 2*n { // rx + tx
		t.Errorf("frames family = %d, want %d", got, 2*n)
	}
	if reg.SumCounter(MetricConnections) != 2 { // one accept + one dial
		t.Errorf("connections family = %d, want 2", reg.SumCounter(MetricConnections))
	}
}

func TestSensorToCollectorUnixSocket(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "sie.sock")
	ln, err := Listen("unix:" + sock)
	if err != nil {
		t.Fatal(err)
	}
	coll := NewCollector(CollectorConfig{})
	go coll.Serve(ln)
	got := make(chan []*sie.Transaction, 1)
	go func() { got <- drain(coll) }()

	s := NewSensor(SensorConfig{Addr: "unix:" + sock, Name: "uds"})
	for i := 0; i < 50; i++ {
		if err := s.Write(testTx(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return coll.Stats().Frames == 50 })
	coll.Close()
	if txs := <-got; len(txs) != 50 {
		t.Fatalf("received %d transactions, want 50", len(txs))
	}
}

// flakyConn fails the nth Write before delivering anything, simulating
// a connection lost between flushes.
type flakyConn struct {
	net.Conn
	failAt *int // shared across redials; decremented per write
}

func (fc *flakyConn) Write(p []byte) (int, error) {
	*fc.failAt--
	if *fc.failAt == 0 {
		fc.Conn.Close()
		return 0, errors.New("flaky: connection lost")
	}
	return fc.Conn.Write(p)
}

func TestSensorReconnectResumesExactly(t *testing.T) {
	coll, addr := startCollector(t, CollectorConfig{})
	got := make(chan []*sie.Transaction, 1)
	go func() { got <- drain(coll) }()

	// Fail the 4th write outright (nothing delivered): the sensor must
	// redial and retransmit the unacknowledged batch; the collector
	// dedups whatever overlap the retransmission carries, so delivery
	// is exactly-once with no gaps and no reordering.
	failAt := 4
	s := NewSensor(SensorConfig{
		Addr: addr, Name: "flaky", FlushBytes: 256,
		BackoffMin: time.Millisecond, BackoffMax: 4 * time.Millisecond,
		WrapConn: func(c net.Conn) net.Conn { return &flakyConn{Conn: c, failAt: &failAt} },
	})
	const n = 100
	for i := 0; i < n; i++ {
		if err := s.Write(testTx(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return coll.Stats().Enqueued == n })
	coll.Close()
	txs := <-got
	if len(txs) != n {
		t.Fatalf("received %d transactions, want %d", len(txs), n)
	}
	for i, tx := range txs {
		if !bytes.Equal(tx.QueryPacket, testTx(i).QueryPacket) {
			t.Fatalf("transaction %d out of order after reconnect", i)
		}
	}
	cst := coll.Stats()
	if cst.Frames != cst.Deduped+cst.Enqueued {
		t.Errorf("frame accounting: frames=%d deduped=%d enqueued=%d", cst.Frames, cst.Deduped, cst.Enqueued)
	}
	st := s.Stats()
	if st.Connects != 2 || st.Reconnects != 1 {
		t.Errorf("stats after one cut: %+v", st)
	}
	if st.Acked != n {
		t.Errorf("acked = %d, want %d", st.Acked, n)
	}
}

func TestSensorGivesUpAfterMaxAttempts(t *testing.T) {
	// Dial a port nobody listens on.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	s := NewSensor(SensorConfig{
		Addr: addr, MaxAttempts: 3,
		BackoffMin: time.Millisecond, BackoffMax: 2 * time.Millisecond,
	})
	if err := s.Write(testTx(0)); err != nil {
		t.Fatal(err) // buffered, below FlushBytes
	}
	if err := s.Flush(); err == nil {
		t.Fatal("flush to a dead collector reported success")
	}
	if err := s.Close(); err == nil {
		t.Fatal("close with an undeliverable tail reported success")
	}
	if err := s.Write(testTx(1)); !errors.Is(err, ErrSensorClosed) {
		t.Fatalf("write after close: %v", err)
	}
}

func TestCollectorShedPolicy(t *testing.T) {
	coll, addr := startCollector(t, CollectorConfig{QueueLen: 8, Overload: Shed})
	s := NewSensor(SensorConfig{Addr: addr, Name: "shedder"})
	const n = 300
	for i := 0; i < n; i++ {
		if err := s.Write(testTx(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Nobody consumed during the stream: everything past the queue
	// capacity must be shed, and the accounting must balance.
	waitFor(t, func() bool {
		st := coll.Stats()
		return st.Frames == n && uint64(len(coll.C()))+st.Shed == n
	})
	coll.Close()
	st := coll.Stats()
	delivered := uint64(len(drain(coll)))
	if st.Shed == 0 {
		t.Fatal("shed policy never shed with a full queue")
	}
	if delivered+st.Shed != n {
		t.Fatalf("delivered %d + shed %d != sent %d", delivered, st.Shed, n)
	}
}

func TestCollectorRejectsBadHandshake(t *testing.T) {
	reg := metrics.NewRegistry()
	coll, addr := startCollector(t, CollectorConfig{Metrics: reg})
	defer coll.Close()

	// Garbage instead of a hello.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte{0x42, 0xff, 0xff})
	assertConnClosed(t, conn)

	// A data frame before the hello.
	conn, err = net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.Write(AppendSeqData(nil, 1, []byte("x")))
	assertConnClosed(t, conn)

	// The version-1 hello ([1][name]) and a hello that names epoch 0:
	// dedup is keyed on the epoch, a sensor without one is not served.
	for _, hello := range [][]byte{
		AppendFrame(nil, FrameHello, append([]byte{1}, "old-sensor"...)),
		AppendFrame(nil, FrameHello, append([]byte{ProtocolVersionSeq, 0}, "no-epoch"...)),
	} {
		conn, err = net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conn.Write(hello)
		assertConnClosed(t, conn)
	}

	waitFor(t, func() bool {
		return reg.Counter(MetricDisconnects, "", "role", "collector", "reason", "protocol").Value() == 4
	})
	if len(coll.Sensors()) != 0 {
		t.Errorf("unhandshaken connections registered sensors: %+v", coll.Sensors())
	}
}

// TestCollectorRejectsReservedFrame: 0x02 was the unsequenced Data frame.
// A peer that sends one after a valid Hello — even with a transaction in
// it — violates the protocol: the connection is cut, counted under
// reason="protocol", and nothing reaches the queue.
func TestCollectorRejectsReservedFrame(t *testing.T) {
	reg := metrics.NewRegistry()
	coll, addr := startCollector(t, CollectorConfig{Metrics: reg})
	got := make(chan []*sie.Transaction, 1)
	go func() { got <- drain(coll) }()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	wire := AppendHelloEpoch(nil, "old-sensor", 1)
	wire = AppendFrame(wire, 0x02, testTx(1).Append(nil))
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	assertConnClosed(t, conn)
	waitFor(t, func() bool {
		return reg.Counter(MetricDisconnects, "", "role", "collector", "reason", "protocol").Value() == 1
	})
	coll.Close()
	if txs := <-got; len(txs) != 0 {
		t.Errorf("%d transactions enqueued from a reserved frame", len(txs))
	}
	if st := coll.Stats(); st.Frames != 0 || st.DecodeErrors != 0 {
		t.Errorf("Stats() = %+v, want no frame and no decode error counted", st)
	}
}

// TestCollectorCountsDecodeErrors: a well-framed payload that is not a
// transaction is counted once, in DecodeErrors and OnReject, and its
// retransmission is a duplicate. With a journal the frame is journaled
// and acknowledged like any other, and counted when the tailer reads it.
func TestCollectorCountsDecodeErrors(t *testing.T) {
	for _, tc := range []struct {
		name    string
		journal bool
	}{{"direct", false}, {"journal", true}} {
		t.Run(tc.name, func(t *testing.T) {
			var rejects int
			rejected := make(chan struct{}, 8)
			coll, addr := startCollector(t, CollectorConfig{
				OnReject: func(error) { rejects++; rejected <- struct{}{} },
			})
			if tc.journal {
				if err := coll.OpenWAL(t.TempDir(), wal.Options{}); err != nil {
					t.Fatal(err)
				}
			}
			got := make(chan []*sie.Transaction, 1)
			go func() { got <- drain(coll) }()

			send := func(wire []byte) {
				t.Helper()
				conn, err := net.Dial("tcp", addr)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := conn.Write(AppendFrame(wire, FrameBye, nil)); err != nil {
					t.Fatal(err)
				}
				// Read the acknowledgements until the collector hangs up after
				// the Bye: closing with acks unread would reset the connection.
				conn.SetReadDeadline(time.Now().Add(2 * time.Second))
				io.Copy(io.Discard, conn)
				conn.Close()
			}
			// A well-framed payload that is not a transaction (no query packet).
			bad := AppendSeqData(AppendHelloEpoch(nil, "bad", 3), 1, []byte{0xff, 0xff, 0xff})
			// Followed by a good one: the stream stays in sync.
			good := testTx(1)
			send(AppendSeqData(bad, 2, good.Append(nil)))
			<-rejected
			// The sensor redials and retransmits the undecodable frame: it was
			// claimed before it was counted, so it is a duplicate now — not a
			// second reject, or EngineStats.Rejected would drift.
			send(bad)

			waitFor(t, func() bool { return coll.Stats().Frames == 3 })
			coll.Close()
			txs := <-got
			if len(txs) != 1 || !bytes.Equal(txs[0].QueryPacket, good.QueryPacket) {
				t.Fatalf("good transaction lost after a decode error: %d", len(txs))
			}
			if st := coll.Stats(); st.DecodeErrors != 1 || st.Deduped != 1 {
				t.Errorf("DecodeErrors = %d, Deduped = %d, want 1 and 1", st.DecodeErrors, st.Deduped)
			}
			if rejects != 1 {
				t.Errorf("OnReject ran %d times, want 1", rejects)
			}
			if err := coll.CloseWAL(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCollectorReadTimeoutCutsStalledSensor(t *testing.T) {
	reg := metrics.NewRegistry()
	coll, addr := startCollector(t, CollectorConfig{ReadTimeout: 30 * time.Millisecond, Metrics: reg})
	defer coll.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(AppendHelloEpoch(nil, "staller", 1)); err != nil {
		t.Fatal(err)
	}
	// Send nothing more: the collector must cut us, not wait forever.
	assertConnClosed(t, conn)
	waitFor(t, func() bool { return reg.SumCounter(MetricDisconnects) == 1 })
}

func TestWriteOversizedTransaction(t *testing.T) {
	s := NewSensor(SensorConfig{Addr: "127.0.0.1:1"})
	huge := &sie.Transaction{
		QueryPacket: bytes.Repeat([]byte("x"), MaxFramePayload),
		QueryTime:   time.Unix(1, 0),
	}
	if err := s.Write(huge); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

// assertConnClosed reads until the peer closes the connection, failing
// after a timeout.
func assertConnClosed(t *testing.T, conn net.Conn) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("peer wrote instead of closing")
	} else if errors.Is(err, io.EOF) {
		return
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("peer left the connection open")
	}
}

// waitFor polls cond for up to 5 s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}
