package transport

import (
	"bytes"
	"testing"
	"time"

	"dnsobservatory/internal/metrics"
	"dnsobservatory/internal/sie"
	"dnsobservatory/internal/wal"
)

// TestSensorWALRestartRetransmits is the sensor half of durable ingest:
// a sensor that buffered transactions into its spill log and died
// before delivering them is rebuilt from the log — same epoch, same
// sequence numbers — and retransmits everything on its next flush.
func TestSensorWALRestartRetransmits(t *testing.T) {
	dir := t.TempDir()
	const n = 40

	// Incarnation one: journal n transactions, never connect, "crash"
	// (no Close — the buffer dies with the process, the log survives).
	s1 := NewSensor(SensorConfig{
		Addr: "127.0.0.1:1", Name: "dur", Epoch: 7, WALDir: dir,
		FlushBytes: 1 << 20, // never triggers a flush
	})
	for i := 0; i < n; i++ {
		if err := s1.Write(testTx(i)); err != nil {
			t.Fatal(err)
		}
	}
	if st := s1.Stats(); st.Unacked != n || st.Spilled != n {
		t.Fatalf("pre-crash stats: %+v", st)
	}

	// Incarnation two recovers the batch and delivers it.
	coll, addr := startCollector(t, CollectorConfig{})
	got := make(chan []*sie.Transaction, 1)
	go func() { got <- drain(coll) }()
	s2 := NewSensor(SensorConfig{Addr: addr, Name: "dur", WALDir: dir})
	if st := s2.Stats(); st.Recovered != n || st.Unacked != n {
		t.Fatalf("post-recovery stats: %+v", st)
	}
	if err := s2.Close(); err != nil { // flush + wait for acks
		t.Fatal(err)
	}
	coll.Close()
	txs := <-got
	if len(txs) != n {
		t.Fatalf("delivered %d transactions, want %d", len(txs), n)
	}
	for i, tx := range txs {
		if !bytes.Equal(tx.QueryPacket, testTx(i).QueryPacket) {
			t.Fatalf("transaction %d out of order after restart", i)
		}
	}

	// Incarnation three: everything was acknowledged, nothing pending.
	s3 := NewSensor(SensorConfig{Addr: addr, Name: "dur", WALDir: dir})
	if st := s3.Stats(); st.Recovered != 0 || st.Unacked != 0 {
		t.Fatalf("stats after clean shutdown: %+v", st)
	}
}

// TestCollectorWALSpillAndReplay is overload under a WAL: with a full
// ingest queue the backlog waits in the journal instead of being shed or
// stalling the sensor, frames are acknowledged on journal durability
// alone, and the tailer feeds the queue in journal order once the
// consumer drains. Nothing spills: the journal is the only path.
func TestCollectorWALSpillAndReplay(t *testing.T) {
	coll, addr := startCollector(t, CollectorConfig{QueueLen: 4})
	if err := coll.OpenWAL(t.TempDir(), wal.Options{}); err != nil {
		t.Fatal(err)
	}

	s := NewSensor(SensorConfig{Addr: addr, Name: "spiller", Epoch: 3, FlushBytes: 256})
	const n = 100
	for i := 0; i < n; i++ {
		if err := s.Write(testTx(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Close succeeds with no consumer running: acknowledgements follow
	// the journal, not the queue.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st := coll.Stats()
	if st.Spilled != 0 || st.Enqueued > 4 {
		t.Fatalf("collector stats %+v: want at most the %d-deep queue enqueued and nothing spilled", st, 4)
	}
	if ws, ok := coll.WALStatus(); !ok || !ws.Behind {
		t.Fatalf("wal status = %+v, ok=%v; want behind", ws, ok)
	}

	// Drain: the tailer's deliveries, in order.
	var txs []*sie.Transaction
	for len(txs) < n {
		select {
		case tx := <-coll.C():
			txs = append(txs, tx)
		case <-time.After(5 * time.Second):
			t.Fatalf("stalled at %d of %d transactions", len(txs), n)
		}
	}
	for i, tx := range txs {
		if !bytes.Equal(tx.QueryPacket, testTx(i).QueryPacket) {
			t.Fatalf("transaction %d out of order through the spill", i)
		}
	}
	waitFor(t, func() bool { st := coll.Stats(); return st.Enqueued == n })
	st = coll.Stats()
	if st.Replayed != 0 || st.Spilled != 0 {
		t.Errorf("replayed %d, spilled %d: want 0 and 0 with nothing recovered or absorbed", st.Replayed, st.Spilled)
	}
	if ws, _ := coll.WALStatus(); ws.Behind {
		t.Errorf("wal status %+v: behind after everything was delivered", ws)
	}
	if st.Frames+st.Replayed != st.Deduped+st.DecodeErrors+st.Shed+st.Enqueued+st.Spilled {
		t.Errorf("accounting identity broken: %+v", st)
	}

	if err := coll.Checkpoint(n); err != nil {
		t.Fatal(err)
	}
	if ws, _ := coll.WALStatus(); ws.Checkpoint == 0 {
		t.Errorf("checkpoint not recorded: %+v", ws)
	}
	coll.Close()
	if err := coll.CloseWAL(); err != nil {
		t.Fatal(err)
	}
}

// TestCollectorWALRestartRecovery is the collector half of durable
// ingest: journaled frames past the last consumer checkpoint are
// re-enqueued by a restarted collector, and the rebuilt dedup windows
// reject a full retransmission of everything already journaled.
func TestCollectorWALRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	const n, consumed = 50, 20

	coll, addr := startCollector(t, CollectorConfig{})
	if err := coll.OpenWAL(dir, wal.Options{}); err != nil {
		t.Fatal(err)
	}
	s := NewSensor(SensorConfig{Addr: addr, Name: "re", Epoch: 11})
	for i := 0; i < n; i++ {
		if err := s.Write(testTx(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The consumer durably applies the first 20 and checkpoints them;
	// the remaining 30 are read but never confirmed — a crash loses
	// that work, so the journal must re-deliver it.
	for i := 0; i < consumed; i++ {
		<-coll.C()
	}
	if err := coll.Checkpoint(consumed); err != nil {
		t.Fatal(err)
	}
	coll.Close()
	for range coll.C() { // drain without checkpointing
	}
	if err := coll.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	// Restart: recovery re-enqueues transactions 21..50 in order.
	coll2, addr2 := startCollector(t, CollectorConfig{})
	if err := coll2.OpenWAL(dir, wal.Options{}); err != nil {
		t.Fatal(err)
	}
	if ws, ok := coll2.WALStatus(); !ok || ws.Recovered != n-consumed {
		t.Fatalf("recovered = %+v (ok=%v), want %d pending", ws, ok, n-consumed)
	}
	for i := consumed; i < n; i++ {
		select {
		case tx := <-coll2.C():
			if !bytes.Equal(tx.QueryPacket, testTx(i).QueryPacket) {
				t.Fatalf("recovered transaction %d mismatched", i)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("recovery stalled at transaction %d", i)
		}
	}

	// A full retransmission under the same (name, epoch) — the sensor
	// never saw acks for its journal — is entirely deduplicated.
	s2 := NewSensor(SensorConfig{Addr: addr2, Name: "re", Epoch: 11})
	for i := 0; i < n; i++ {
		if err := s2.Write(testTx(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return coll2.Stats().Deduped == n })
	if got := coll2.Stats().Replayed; got != n-consumed {
		t.Errorf("replayed = %d, want %d", got, n-consumed)
	}
	coll2.Close()
	if err := coll2.CloseWAL(); err != nil {
		t.Fatal(err)
	}
}

// TestCollectorAbsorbLog is fleet failover at the journal level: a
// surviving collector absorbs a dead peer's log past its checkpoint,
// delivering the work the peer accepted but never finished — and a
// second absorb (or a sensor retransmission of the same frames) dedups
// completely. Each absorbed frame counts in Replayed once, whether the
// survivor enqueues it directly or journals it for its tailer.
func TestCollectorAbsorbLog(t *testing.T) {
	peerDir := t.TempDir()
	const n, consumed = 30, 10

	// The doomed peer journals 30 frames and checkpoints 10.
	peer, addr := startCollector(t, CollectorConfig{})
	if err := peer.OpenWAL(peerDir, wal.Options{}); err != nil {
		t.Fatal(err)
	}
	s := NewSensor(SensorConfig{Addr: addr, Name: "fo", Epoch: 21})
	for i := 0; i < n; i++ {
		if err := s.Write(testTx(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < consumed; i++ {
		<-peer.C()
	}
	if err := peer.Checkpoint(consumed); err != nil {
		t.Fatal(err)
	}
	peer.Close()
	if err := peer.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name    string
		journal bool
	}{{"direct", false}, {"journal", true}} {
		t.Run(tc.name, func(t *testing.T) {
			// The survivor absorbs the orphaned tail.
			surv, _ := startCollector(t, CollectorConfig{})
			if tc.journal {
				if err := surv.OpenWAL(t.TempDir(), wal.Options{}); err != nil {
					t.Fatal(err)
				}
			}
			peerLog, err := wal.Open(peerDir, wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan []*sie.Transaction, 1)
			go func() { done <- drain(surv) }()
			absorbed, deduped, err := surv.AbsorbLog(peerLog, nil)
			if err != nil || absorbed != n-consumed || deduped != 0 {
				t.Fatalf("first absorb: absorbed=%d deduped=%d err=%v", absorbed, deduped, err)
			}
			absorbed, deduped, err = surv.AbsorbLog(peerLog, nil)
			if err != nil || absorbed != 0 || deduped != n-consumed {
				t.Fatalf("second absorb: absorbed=%d deduped=%d err=%v", absorbed, deduped, err)
			}
			peerLog.Close()
			waitFor(t, func() bool { return surv.Stats().Enqueued == n-consumed })
			surv.Close()
			txs := <-done
			if len(txs) != n-consumed {
				t.Fatalf("survivor delivered %d, want %d", len(txs), n-consumed)
			}
			for i, tx := range txs {
				if !bytes.Equal(tx.QueryPacket, testTx(consumed+i).QueryPacket) {
					t.Fatalf("absorbed transaction %d mismatched", i)
				}
			}
			st := surv.Stats()
			if st.Replayed != n-consumed || st.Frames+st.Replayed != st.Deduped+st.DecodeErrors+st.Shed+st.Enqueued+st.Spilled {
				t.Errorf("collector stats %+v: want %d replayed, each once", st, n-consumed)
			}
			if err := surv.CloseWAL(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCheckpointWhileTailerDelivers: a consumer checkpoints after every
// transaction it takes while the tailer keeps delivering into a short
// queue. Every trim position is the journal position of exactly the last
// transaction consumed — never an earlier one, which would replay work
// already applied, and never a later one, which would lose work not yet
// applied. Run it under -race.
func TestCheckpointWhileTailerDelivers(t *testing.T) {
	const n = 2000
	coll, addr := startCollector(t, CollectorConfig{QueueLen: 8})
	if err := coll.OpenWAL(t.TempDir(), wal.Options{}); err != nil {
		t.Fatal(err)
	}
	conn := dialSensor(t, addr)
	defer conn.Close()
	go conn.Write(seqWire("ckpt", 1, n))

	trims := make(map[uint64]uint64, n) // consumed → trim position
	for consumed := uint64(1); consumed <= n; consumed++ {
		select {
		case <-coll.C():
		case <-time.After(5 * time.Second):
			t.Fatalf("stalled at %d of %d transactions", consumed-1, n)
		}
		if err := coll.Checkpoint(consumed); err != nil {
			t.Fatal(err)
		}
		trims[consumed] = coll.log.Checkpointed()
	}
	// seqWire's frame i is the i-th transaction: the record at a trim
	// position must carry exactly the consumed count as its sequence.
	seqAt := map[uint64]uint64{}
	if err := coll.log.Replay(func(pos uint64, r wal.Record) error {
		if r.Kind == wal.KindData {
			seqAt[pos] = r.Seq
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for consumed, pos := range trims {
		if seq, ok := seqAt[pos]; !ok || seq != consumed {
			t.Fatalf("after %d consumed the checkpoint trims to position %d, which holds sequence %d (data: %v)", consumed, pos, seq, ok)
		}
	}
	coll.Close()
	if err := coll.CloseWAL(); err != nil {
		t.Fatal(err)
	}
}

// TestBlockPolicyBackpressure pins the Block overload contract: a slow
// consumer stalls the sensor through TCP backpressure — the queue
// holds, nothing is shed, nothing is lost — and delivery completes
// exactly-once, in order, when the consumer resumes. That holds whether
// the sensor waits the stall out or gives up on its acknowledgements
// inside it and redials, leaving a blocked handler with frames still
// buffered next to its successor.
func TestBlockPolicyBackpressure(t *testing.T) {
	for _, tc := range []struct {
		name       string
		ackTimeout time.Duration
	}{
		{"sensor-waits", 5 * time.Second},
		{"sensor-redials", 50 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const queueLen, n = 4, 120
			coll, addr := startCollector(t, CollectorConfig{QueueLen: queueLen, Overload: Block})
			s := NewSensor(SensorConfig{
				Addr: addr, Name: "bp", Epoch: 5, FlushBytes: 64,
				WriteTimeout: 5 * time.Second, AckTimeout: tc.ackTimeout,
				MaxAttempts: -1, BackoffMin: time.Millisecond, BackoffMax: 8 * time.Millisecond,
			})

			sent := make(chan error, 1)
			go func() {
				for i := 0; i < n; i++ {
					if err := s.Write(testTx(i)); err != nil {
						sent <- err
						return
					}
				}
				sent <- s.Close()
			}()

			// Nobody consumes: the pipeline must wedge with at most the
			// queue plus one in-flight transaction enqueued, and shed
			// nothing.
			time.Sleep(300 * time.Millisecond)
			if st := coll.Stats(); st.Shed != 0 || st.Enqueued > queueLen+1 {
				t.Fatalf("stalled-consumer stats: %+v", st)
			}
			select {
			case err := <-sent:
				t.Fatalf("sensor finished against a stalled consumer: %v", err)
			default:
			}

			// Resume consumption: everything arrives exactly once, in order.
			var txs []*sie.Transaction
			for len(txs) < n {
				select {
				case tx := <-coll.C():
					txs = append(txs, tx)
				case <-time.After(10 * time.Second):
					t.Fatalf("stalled at %d of %d transactions", len(txs), n)
				}
			}
			if err := <-sent; err != nil {
				t.Fatalf("sensor error: %v", err)
			}
			for i, tx := range txs {
				if !bytes.Equal(tx.QueryPacket, testTx(i).QueryPacket) {
					t.Fatalf("transaction %d duplicated or reordered under backpressure", i)
				}
			}
			// The handler counts a transaction after the channel send
			// returns, so the last one may be in the test's hands before it
			// is counted.
			waitFor(t, func() bool { return coll.Stats().Enqueued == n })
			if st := coll.Stats(); st.Shed != 0 {
				t.Errorf("final stats: %+v", st)
			}
			coll.Close()
		})
	}
}

// TestUnackedGaugeAndLiveness covers the two observability satellites:
// the dnsobs_transport_unacked gauge tracks the pending batch, and a
// disconnected sensor lingers in Sensors() with its last error for the
// grace period, then drops out.
func TestUnackedGaugeAndLiveness(t *testing.T) {
	reg := metrics.NewRegistry()
	coll, addr := startCollector(t, CollectorConfig{
		Metrics: reg, SensorGrace: 80 * time.Millisecond,
	})
	go func() {
		for range coll.C() {
		}
	}()

	s := NewSensor(SensorConfig{
		Addr: addr, Name: "obs", Metrics: reg, FlushBytes: 1 << 20,
	})
	const n = 25
	for i := 0; i < n; i++ {
		if err := s.Write(testTx(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Sum(MetricUnacked); got != n {
		t.Errorf("unacked gauge = %v, want %d before flush", got, n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Sum(MetricUnacked); got != 0 {
		t.Errorf("unacked gauge = %v after close, want 0", got)
	}

	waitFor(t, func() bool {
		ss := coll.Sensors()
		return len(ss) == 1 && !ss[0].Connected
	})
	ss := coll.Sensors()
	if ss[0].LastError != "eof" || ss[0].DisconnectedAgeSec < 0 {
		t.Errorf("disconnected status: %+v", ss[0])
	}
	// Past the grace period the record is forgotten.
	waitFor(t, func() bool { return len(coll.Sensors()) == 0 })
	coll.Close()
}
