package transport

import (
	"bytes"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dnsobservatory/internal/metrics"
	"dnsobservatory/internal/sie"
	"dnsobservatory/internal/wal"
)

// TestJournalWrittenPerAcknowledgement: the journal is written when an
// acknowledgement needs it there, not per frame. 10 000 frames over one
// connection leave as many appends and no more segment writes than there
// were fsyncs (each flushes first), plus one per 256 KiB for a buffer
// that filled in between, plus the rotations — some 45 writes where
// there were 10 000. The metric families say the same, and the liveness
// count, which the handler now publishes per acknowledgement, is exact
// once the connection is gone.
func TestJournalWrittenPerAcknowledgement(t *testing.T) {
	const n = 10000
	reg := metrics.NewRegistry()
	coll, addr := startCollector(t, CollectorConfig{QueueLen: n, Metrics: reg})
	if err := coll.OpenWAL(t.TempDir(), wal.Options{}); err != nil {
		t.Fatal(err)
	}
	s := NewSensor(SensorConfig{Addr: addr, Name: "batch", Epoch: 1})
	for i := 0; i < n; i++ {
		if err := s.Write(testTx(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil { // every frame acknowledged, so synced
		t.Fatal(err)
	}
	waitFor(t, func() bool { ss := coll.Sensors(); return len(ss) == 1 && !ss[0].Connected })
	if ss := coll.Sensors(); ss[0].Frames != n {
		t.Errorf("liveness counts %d frames after the disconnect, want %d", ss[0].Frames, n)
	}

	st := coll.log.Stats()
	const stageCap = 256 << 10
	bound := st.Syncs + uint64(coll.log.Size()+stageCap-1)/stageCap + uint64(coll.log.Segments()-1)
	if st.Appends != n || st.Writes > bound || st.Writes > n/20 {
		t.Errorf("%d records in %d segment writes (%d fsyncs, %d acks); want %d records in at most %d writes",
			st.Appends, st.Writes, st.Syncs, coll.Stats().Acks, n, bound)
	}
	t.Logf("%d frames: %d segment writes, %d fsyncs, %d acks — %.1f writes per 1 000 frames",
		n, st.Writes, st.Syncs, coll.Stats().Acks, 1000*float64(st.Writes)/n)
	for name, want := range map[string]uint64{MetricWALAppends: st.Appends, MetricWALWrites: st.Writes, MetricWALSyncs: st.Syncs} {
		if got := reg.SumCounter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	coll.Close()
	if err := coll.CloseWAL(); err != nil {
		t.Fatal(err)
	}
}

// mutedConn drops what the collector writes once muted is set: the
// acknowledgements of a process that has, as far as its sensors can
// tell, already died.
type mutedConn struct {
	net.Conn
	muted *atomic.Bool
}

func (c mutedConn) Write(p []byte) (int, error) {
	if c.muted.Load() {
		return len(p), nil
	}
	return c.Conn.Write(p)
}

// copyDir copies the files of src into dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(src, "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, filepath.Base(name)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCrashImageRedelivers is kill -9 between stage and acknowledgement.
// The journal directory is copied while a collector has frames staged —
// the copy is what the kernel would have kept had the process died at
// that instant — and a second collector starts on the copy while the
// sensor redials. Frames that were only staged are gone from the image,
// and that loses nothing: they were not acknowledged, so the sensor
// still holds them. Every transaction reaches the second collector's
// consumer exactly once and in order, and its store is the one a direct
// run over the stream leaves (TestEndToEndGoldenTSV's).
//
// With acknowledgements disabled nothing but the buffer cap ever flushes,
// so the image lacks a tail for certain. With them on, the image is
// taken mid-stream, after the first collector's last acknowledgement has
// left (the connection is muted first): whatever was acknowledged must
// be in it, or the sensor has pruned a frame nobody has.
func TestCrashImageRedelivers(t *testing.T) {
	const n = 3000
	base := time.Unix(1600000000, 0)
	var stream bytes.Buffer
	w := sie.NewWriter(&stream)
	for i := 0; i < n; i++ {
		if err := w.Write(dnsTx(t, i, base)); err != nil {
			t.Fatal(err)
		}
	}
	dirDirect := t.TempDir()
	ingestAll(t, dirDirect, sie.NewReader(bytes.NewReader(stream.Bytes())).Read)
	direct := storeDigests(t, dirDirect)

	for _, tc := range []struct {
		name    string
		acks    bool
		crashAt uint64 // frames the first collector has received when it dies
	}{
		{"never-acknowledged", false, n},
		{"acknowledged-mid-stream", true, n / 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			walDir, image := t.TempDir(), t.TempDir()
			var muted atomic.Bool
			first, addr1 := startCollector(t, CollectorConfig{
				DisableAcks: !tc.acks,
				WrapConn:    func(c net.Conn) net.Conn { return mutedConn{c, &muted} },
			})
			if err := first.OpenWAL(walDir, wal.Options{}); err != nil {
				t.Fatal(err)
			}
			go drain(first) // its consumer dies with it: nothing it saw counts

			var addr atomic.Value
			addr.Store(addr1)
			s := NewSensor(SensorConfig{
				Name: "crash", Epoch: 5, FlushBytes: 4 << 10,
				Dial:         func() (net.Conn, error) { return net.Dial("tcp", addr.Load().(string)) },
				WriteTimeout: 5 * time.Second, AckTimeout: 5 * time.Second,
				MaxAttempts: -1, BackoffMin: time.Millisecond, BackoffMax: 10 * time.Millisecond,
			})
			sent := make(chan error, 1)
			go func() {
				rd := sie.NewReader(bytes.NewReader(stream.Bytes()))
				var tx sie.Transaction
				for {
					err := rd.Read(&tx)
					if err == io.EOF {
						break
					}
					if err == nil {
						err = s.Write(&tx)
					}
					if err != nil {
						sent <- err
						return
					}
				}
				sent <- s.Close() // returns once the second collector has acknowledged everything
			}()

			// The crash: no acknowledgement leaves the first collector from
			// here on, then the image is taken, then the process is gone.
			waitFor(t, func() bool { return first.Stats().Frames >= tc.crashAt })
			muted.Store(true)
			acked := s.Stats().Acked
			copyDir(t, walDir, image)
			first.Close()

			imageLog, err := wal.Open(image, wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			var inImage uint64
			if err := imageLog.Replay(func(uint64, wal.Record) error { inImage++; return nil }); err != nil {
				t.Fatal(err)
			}
			imageLog.Close()
			if (!tc.acks && inImage >= n) || acked > inImage {
				t.Fatalf("the image holds %d of %d frames, %d were acknowledged: want nothing acknowledged missing, and without acknowledgements a tail", inImage, n, acked)
			}
			t.Logf("image: %d of %d frames, %d acknowledged", inImage, n, acked)

			second, addr2 := startCollector(t, CollectorConfig{})
			if err := second.OpenWAL(image, wal.Options{}); err != nil {
				t.Fatal(err)
			}
			if ws, _ := second.WALStatus(); ws.Recovered != inImage {
				t.Fatalf("recovered %d frames from an image of %d", ws.Recovered, inImage)
			}
			addr.Store(addr2)
			go func() {
				if err := <-sent; err != nil {
					t.Error(err)
				}
				deadline := time.Now().Add(10 * time.Second)
				for second.Stats().Enqueued < n && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				second.Close()
			}()
			delivered := 0
			var prev time.Time
			dirNet := t.TempDir()
			ingestAll(t, dirNet, func(tx *sie.Transaction) error {
				rx, ok := <-second.C()
				if !ok {
					return io.EOF
				}
				if delivered++; !rx.QueryTime.After(prev) {
					t.Errorf("delivery %d is not after its predecessor", delivered)
				}
				prev = rx.QueryTime
				*tx = *rx
				return nil
			})
			if delivered != n {
				t.Errorf("delivered %d transactions, want each of the %d once", delivered, n)
			}
			if st := second.Stats(); st.Replayed < inImage || st.Frames+st.Replayed != st.Deduped+st.DecodeErrors+st.Shed+st.Enqueued+st.Spilled {
				t.Errorf("accounting: %+v", st)
			}
			networked := storeDigests(t, dirNet)
			if len(direct) == 0 || len(networked) != len(direct) {
				t.Fatalf("%d files from the direct run, %d through the crash", len(direct), len(networked))
			}
			for rel, sum := range direct {
				if networked[rel] != sum {
					t.Errorf("%s differs between the direct run and the one through the crash", rel)
				}
			}
			if err := second.CloseWAL(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestReadTimeoutInsideAFrame: a sensor that stalls inside a frame — one
// the handler reaches with its read buffer partly full, so not at a point
// where it was about to block anyway — is cut a timeout after its last
// byte, the whole frames before the stall are delivered and counted, and
// the reason is the connection's LastError.
func TestReadTimeoutInsideAFrame(t *testing.T) {
	const n, timeout = 4000, 150 * time.Millisecond // ≈ 180 KB: several read buffers
	coll, addr := startCollector(t, CollectorConfig{ReadTimeout: timeout})
	defer coll.Close()
	go drain(coll)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	wire := seqWire("staller", 1, n)
	// The collector arms its deadline at the read that takes the last
	// bytes, which may come before Write returns here: a clock read after
	// the write can be late, one before it never is.
	stalled := time.Now()
	if _, err := conn.Write(wire[:len(wire)-5]); err != nil { // the last frame never completes
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(timeout + 2*time.Second))
	if _, err := io.Copy(io.Discard, conn); err != nil { // acknowledgements, then the cut
		t.Fatalf("the collector left a sensor stalled inside a frame connected: %v", err)
	}
	if cut := time.Since(stalled); cut < timeout || cut > timeout+time.Second {
		t.Errorf("cut %v after the last byte, want %v and a little", cut, timeout)
	}
	waitFor(t, func() bool { ss := coll.Sensors(); return len(ss) == 1 && !ss[0].Connected })
	if ss := coll.Sensors(); ss[0].Frames != n-1 || !strings.Contains(ss[0].LastError, "timeout") {
		t.Errorf("liveness after the cut: %+v, want %d frames and a timeout", ss[0], n-1)
	}
	if got := coll.Stats().Enqueued; got != n-1 {
		t.Errorf("%d transactions enqueued, want the %d whole frames", got, n-1)
	}
}

// TestReadTimeoutSparesABlockedHandler: the timeout is for a sensor that
// goes quiet, not for a collector that is slow. A handler that waits for
// room in the queue for longer than the timeout, with the rest of the
// stream already sitting in its socket, goes on reading when there is
// room — a deadline armed before the wait, rather than at the read, would
// have run out meanwhile and cut a sensor that had stalled nothing.
func TestReadTimeoutSparesABlockedHandler(t *testing.T) {
	const n, timeout = 4000, 50 * time.Millisecond
	coll, addr := startCollector(t, CollectorConfig{ReadTimeout: timeout, QueueLen: 1, Overload: Block})
	defer coll.Close()
	conn := dialSensor(t, addr)
	defer conn.Close()
	if _, err := conn.Write(seqWire("patient", 1, n)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * timeout) // nobody consumes: the handler is blocked in deliver
	for i := 1; i <= n; i++ {
		select {
		case tx := <-coll.C():
			if !tx.QueryTime.Equal(testTx(i).QueryTime) {
				t.Fatalf("delivery %d is not transaction %d", i, i)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("stalled at %d of %d: the connection was cut with frames unread", i-1, n)
		}
	}
}
