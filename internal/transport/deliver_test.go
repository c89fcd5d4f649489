package transport

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"dnsobservatory/internal/wal"
)

// seqWire is what a sensor (name, epoch) puts on one connection: its
// hello, then testTx(1..n) as SeqData 1..n.
func seqWire(name string, epoch uint64, n int) []byte {
	wire := AppendHelloEpoch(nil, name, epoch)
	for i := 1; i <= n; i++ {
		wire = AppendSeqData(wire, uint64(i), testTx(i).Append(nil))
	}
	return wire
}

// dialSensor opens a raw connection that reads and drops the
// collector's acknowledgements, as a sensor's would.
func dialSensor(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	go io.Copy(io.Discard, conn)
	return conn
}

// TestOverlappingConnectionsKeepOrder is the redial whose predecessor
// still has frames buffered, at its worst: two connections of one
// (sensor, epoch) stream the same 20 000 frames at once. Each sequence
// number must reach the consumer exactly once and in ascending order —
// a transaction that crosses a window boundary late is clamped into the
// wrong window, and the golden stores stop matching.
func TestOverlappingConnectionsKeepOrder(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     CollectorConfig
		journal bool
		stall   time.Duration
	}{
		// A handler blocked on the full queue while its twin runs ahead.
		{"block", CollectorConfig{QueueLen: 4, Overload: Block}, false, 100 * time.Millisecond},
		// A queue that keeps filling and draining: direct enqueues, spills
		// and the tailer's hand-backs interleave.
		{"wal", CollectorConfig{QueueLen: 64}, true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 20000
			coll, addr := startCollector(t, tc.cfg)
			if tc.journal {
				if err := coll.OpenWAL(t.TempDir(), wal.Options{}); err != nil {
					t.Fatal(err)
				}
			}
			wire := seqWire("dup", 9, n)
			// The connections stay open until everything is delivered:
			// closing one with acknowledgements unread resets it, and a
			// reset discards what the collector has not read yet.
			wrote := make(chan error, 2)
			for i := 0; i < cap(wrote); i++ {
				conn := dialSensor(t, addr)
				defer conn.Close()
				go func() {
					_, err := conn.Write(wire)
					wrote <- err
				}()
			}

			// n strictly ascending deliveries drawn from testTx(1..n) are
			// testTx(1..n), each exactly once.
			time.Sleep(tc.stall)
			var prev time.Time
			inversions := 0
			for got := 0; got < n; got++ {
				select {
				case tx := <-coll.C():
					if !tx.QueryTime.After(prev) {
						inversions++
					}
					prev = tx.QueryTime
				case <-time.After(10 * time.Second):
					t.Fatalf("stalled at %d of %d transactions", got, n)
				}
			}
			if inversions > 0 {
				t.Errorf("%d of %d transactions delivered before their predecessor in sequence", inversions, n)
			}

			waitFor(t, func() bool { st := coll.Stats(); return st.Frames == 2*n && st.Enqueued == n })
			for i := 0; i < cap(wrote); i++ {
				if err := <-wrote; err != nil {
					t.Errorf("write: %v", err)
				}
			}
			coll.Close()
			if extra := len(drain(coll)); extra != 0 {
				t.Errorf("%d transactions delivered beyond the %d sent", extra, n)
			}
			st := coll.Stats()
			if st.Deduped != n || st.Shed != 0 || st.DecodeErrors != 0 ||
				st.Frames+st.Replayed != st.Deduped+st.Enqueued+st.Spilled {
				t.Errorf("accounting: %+v", st)
			}
			if tc.journal {
				if err := coll.CloseWAL(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestFullQueueArms: a full queue is the one place the collector's
// configurations differ, and each arm moves its own counter. With a
// journal the frame spills and the tailer replays it (whatever Overload
// says); without one, Shed drops it and Block stops reading until there
// is room. Either way every frame lands in exactly one term of the
// accounting identity.
func TestFullQueueArms(t *testing.T) {
	const queueLen, n = 4, 50
	for _, tc := range []struct {
		name     string
		overload OverloadPolicy
		journal  bool
		// With nobody consuming, the collector settles at these counts…
		frames, spilled, shed uint64
		// …and this many transactions reach a consumer that then drains.
		delivered int
	}{
		{"journal-spills", Shed, true, n, n - queueLen, 0, n},
		{"shed-drops", Shed, false, n, 0, n - queueLen, queueLen},
		{"block-waits", Block, false, queueLen + 1, 0, 0, n},
	} {
		t.Run(tc.name, func(t *testing.T) {
			coll, addr := startCollector(t, CollectorConfig{QueueLen: queueLen, Overload: tc.overload})
			if tc.journal {
				if err := coll.OpenWAL(t.TempDir(), wal.Options{}); err != nil {
					t.Fatal(err)
				}
			}
			conn := dialSensor(t, addr)
			defer conn.Close()
			if _, err := conn.Write(seqWire("arms", 1, n)); err != nil {
				t.Fatal(err)
			}

			waitFor(t, func() bool {
				st := coll.Stats()
				return st.Frames == tc.frames && st.Enqueued == queueLen && st.Spilled == tc.spilled && st.Shed == tc.shed
			})
			for i := 1; i <= tc.delivered; i++ {
				select {
				case tx := <-coll.C():
					if !tx.QueryTime.Equal(testTx(i).QueryTime) {
						t.Fatalf("delivery %d is not transaction %d", i, i)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("stalled at %d of %d transactions", i-1, tc.delivered)
				}
			}
			waitFor(t, func() bool { st := coll.Stats(); return st.Frames == n && st.Enqueued == uint64(tc.delivered) })
			coll.Close()
			if extra := len(drain(coll)); extra != 0 {
				t.Errorf("%d transactions delivered beyond the expected %d", extra, tc.delivered)
			}
			st := coll.Stats()
			if st.Spilled != tc.spilled || st.Shed != tc.shed || st.Replayed != st.Spilled ||
				st.Frames+st.Replayed != st.Deduped+st.DecodeErrors+st.Shed+st.Enqueued+st.Spilled {
				t.Errorf("accounting: %+v", st)
			}
			if tc.journal {
				if err := coll.CloseWAL(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestUnqueuedFrameLeavesTheArena: a frame whose transaction is not
// handed to the queue — spilled to the journal, shed, or a duplicate —
// gives its decode space back to the handler's arena, where it used to
// keep ≈ 230 bytes of body and a Transaction slot it never used.
func TestUnqueuedFrameLeavesTheArena(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     CollectorConfig
		journal bool
	}{
		{"wal", CollectorConfig{QueueLen: 1}, true},
		{"shed", CollectorConfig{QueueLen: 1, Overload: Shed}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCollector(tc.cfg)
			defer func() {
				c.Close()
				if err := c.CloseWAL(); err != nil {
					t.Error(err)
				}
			}()
			if tc.journal {
				if err := c.OpenWAL(t.TempDir(), wal.Options{}); err != nil {
					t.Fatal(err)
				}
			}
			var a arena
			deliver := func(seq uint64) {
				t.Helper()
				if _, err := c.deliver(&a, "s", 1, seq, testTx(int(seq)).Append(nil), false); err != nil {
					t.Fatal(err)
				}
			}
			deliver(1) // queued: the queue is full from here on
			chunk, slab := len(a.chunk), len(a.slab)
			deliver(2) // spilled or shed
			deliver(1) // a duplicate
			if len(a.chunk) != chunk || len(a.slab) != slab {
				t.Errorf("arena tails %d bytes, %d slots after two unqueued frames; %d, %d before", len(a.chunk), len(a.slab), chunk, slab)
			}
			st := c.Stats()
			if st.Enqueued != 1 || st.Deduped != 1 || st.Spilled+st.Shed != 1 {
				t.Errorf("collector stats %+v: want one frame queued, one spilled or shed, one deduplicated", st)
			}
			// The space taken back was the unqueued frames', not the queued one's.
			if got := (<-c.C()).Append(nil); !bytes.Equal(got, testTx(1).Append(nil)) {
				t.Error("the queued transaction changed under the decodes that followed it")
			}
		})
	}
}
