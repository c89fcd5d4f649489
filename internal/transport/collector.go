package transport

import (
	"errors"
	"io"
	"net"
	"sort"
	"sync"
	"time"
	"unsafe"

	"dnsobservatory/internal/metrics"
	"dnsobservatory/internal/sie"
	"dnsobservatory/internal/wal"
)

// OverloadPolicy selects what a connection handler does when the
// collector's ingest channel is full. It is the one place the spine may
// drop a transaction: the engine above it only ever blocks.
type OverloadPolicy int

const (
	// Block applies backpressure: the handler waits for the consumer,
	// which stalls the sensor's TCP stream once kernel buffers fill.
	// The default, and the right choice when sensors buffer locally.
	Block OverloadPolicy = iota
	// Shed drops the transaction when the queue is full, counting it
	// in Stats().Shed — for a collector that must never stall reads.
	Shed
)

// ackWriteTimeout bounds one acknowledgement write; a sensor that
// stopped reading acks cannot wedge its handler. helloTimeout bounds the
// wait for the handshake frame on a new connection. ackEvery forces an
// acknowledgement at least that often on a busy connection; on an idle
// one the collector acks as soon as its read buffer drains.
const (
	ackWriteTimeout = 5 * time.Second
	helloTimeout    = 10 * time.Second
	ackEvery        = 256
)

// dedupWindowSize is the per-(sensor, epoch) sliding window of sequence
// numbers the collector remembers, as a bitmap ring. Retransmission is
// whole-batch from the first unacknowledged frame, so the window only
// has to cover one in-flight batch — 64Ki frames is orders beyond any
// sane FlushBytes backlog.
const dedupWindowSize = 1 << 16

// maxEpochsPerSensor caps retained dedup windows per sensor name, so N
// processes sharing one name (or a crash-looping sensor) cannot grow
// state without bound. Eviction drops the smallest non-current epoch.
const maxEpochsPerSensor = 4

// CollectorConfig tunes a Collector. The zero value is usable.
type CollectorConfig struct {
	// QueueLen is the capacity of the ordered ingest channel (default
	// 4096 transactions).
	QueueLen int
	// Overload selects what a journal-less collector does with a full
	// queue: Block (default) applies backpressure, Shed drops with
	// accounting. A collector with a WAL (OpenWAL) needs neither: the
	// frame is already in the log, so it spills and a tailer replays —
	// reads never stall and nothing drops.
	Overload OverloadPolicy
	// ReadTimeout, when positive, is the per-frame read deadline: a
	// sensor that stalls mid-stream longer than this is cut (it will
	// reconnect and resume). 0 disables deadlines.
	ReadTimeout time.Duration
	// DisableAcks suppresses acknowledgements entirely (chaos tests:
	// a collector that accepts frames but never confirms them, forcing
	// full retransmission to its successor).
	DisableAcks bool
	// SensorGrace is how long a disconnected sensor's liveness record
	// is retained — Connected=false with the disconnect reason — before
	// Sensors() forgets it (default 10m). Dedup state is kept
	// regardless; only the health listing is pruned.
	SensorGrace time.Duration
	// Metrics, when set, is the registry the collector publishes the
	// dnsobs_transport_* families to. Nil keeps standalone counters.
	Metrics *metrics.Registry
	// WrapConn, when set, wraps every accepted connection — the chaos
	// injection point for network faults (chaos.Injector.WrapConn).
	WrapConn func(net.Conn) net.Conn
	// OnReject, when set, is called for every well-framed Data payload
	// that failed to decode as a transaction (so the pipeline can
	// account it as rejected, keeping the EngineStats invariant).
	OnReject func(err error)
}

// Collector accepts many concurrent sensor connections and fans their
// transaction streams into one ordered ingest channel: per-sensor
// sequence order is preserved — across a redial too, even while the
// old connection's handler is still working through its buffer (see
// deliver) — and interleaving between sensors is arrival order.
// Transactions on the channel own their buffers; the consumer may hold
// them indefinitely.
//
// Delivery is effectively-once: the collector deduplicates (sensor,
// epoch, seq) replays against a sliding window and acknowledges
// accepted sequence numbers, so a reconnecting sensor retransmits its
// unacknowledged batch and only the genuinely-new frames pass. With a
// WAL attached (OpenWAL), accepted frames are journaled before they are
// acknowledged, overload spills to the log instead of dropping or
// stalling, and a restart replays everything past the last consumer
// checkpoint.
//
// Concurrency contract: Serve may be called for several listeners
// (e.g. one TCP, one Unix); each connection runs on its own goroutine.
// Close stops accepting, cuts every connection, waits for the
// handlers, then closes the ingest channel — transactions already
// queued remain readable, so the consumer drains by ranging until the
// channel closes. The WAL stays open through Close so the consumer can
// take a final Checkpoint after draining; CloseWAL releases it.
type Collector struct {
	cfg CollectorConfig
	out chan *sie.Transaction
	// stop unblocks whoever waits on a full ingest channel — a handler
	// under the Block policy, the spill tailer — once Close begins.
	stop chan struct{}

	// mu guards the connections and the liveness records. It is never
	// held across anything that can wait, so /healthz answers while
	// delivery is stalled.
	mu        sync.Mutex
	closed    bool
	listeners []net.Listener
	conns     map[net.Conn]struct{}
	sensors   map[string]*sensorState

	// dmu is the delivery section (see deliver); it guards everything
	// down to recovered. A journal-less collector has the same state
	// with no log in it.
	dmu sync.Mutex
	// dedup is the seen-sequence state, keyed sensor name → epoch.
	// Deliberately separate from the liveness records: those are pruned
	// after SensorGrace, dedup marks must outlive a long disconnect.
	dedup map[string]map[uint64]*epochWindow
	// log is the journal, nil until OpenWAL. OpenWAL runs before the
	// first connection and the pointer never changes afterwards, so it
	// is also read without dmu, by callers that must not wait behind a
	// blocked delivery (Checkpoint, WALStatus, the ack barrier).
	log *wal.Log
	// behind is true while the tailer owns delivery: frames journaled
	// at a position the tailer has not reached yet must not be enqueued
	// directly, or they would jump the queue order.
	behind bool
	// nextRead is the journal position delivery has reached: everything
	// below it is either enqueued or checkpointed.
	nextRead uint64
	// posLog maps enqueue order to journal positions: posLog[i] is the
	// position of the (consumedBase+i+1)-th transaction ever enqueued.
	// Checkpoint(consumed) indexes it to find the trim position.
	posLog       []uint64
	consumedBase uint64
	jerr         error  // first journal failure; poisons acks
	recovered    uint64 // data records re-enqueued by restart recovery

	kick chan struct{} // wakes the spill tailer

	serveWG sync.WaitGroup // accept loops
	connWG  sync.WaitGroup // connection handlers
	tailWG  sync.WaitGroup // the spill tailer, once a journal is attached

	m *collectorMetrics
}

// epochWindow is the dedup window for one (sensor, epoch): a bitmap
// ring over the last dedupWindowSize sequence numbers plus the highest
// seen. Sequence numbers that fall off the back are assumed seen —
// safe, because the sensor prunes acknowledged frames and never
// retransmits that far back.
type epochWindow struct {
	max  uint64
	bits [dedupWindowSize / 64]uint64
}

// claim marks seq seen and reports whether it was fresh.
func (w *epochWindow) claim(seq uint64) bool {
	idx := func(s uint64) (int, uint64) { p := s % dedupWindowSize; return int(p / 64), uint64(1) << (p % 64) }
	switch {
	case seq > w.max:
		if seq-w.max >= dedupWindowSize {
			w.bits = [dedupWindowSize / 64]uint64{}
		} else {
			for p := w.max + 1; p < seq; p++ {
				i, b := idx(p)
				w.bits[i] &^= b
			}
		}
		i, b := idx(seq)
		w.bits[i] |= b
		w.max = seq
		return true
	case w.max-seq >= dedupWindowSize:
		return false
	default:
		i, b := idx(seq)
		fresh := w.bits[i]&b == 0
		w.bits[i] |= b
		return fresh
	}
}

// sensorState is the liveness record behind one sensor name. Guarded
// by Collector.mu.
type sensorState struct {
	conns          int
	connects       uint64
	frames         uint64
	lastFrame      time.Time
	lastErr        string
	disconnectedAt time.Time
}

// SensorStatus is one sensor's liveness as reported by Sensors (and,
// through it, the web UI /healthz endpoint).
type SensorStatus struct {
	Name string `json:"name"`
	// Connected reports a live connection claiming this sensor name.
	Connected bool `json:"connected"`
	// Connects counts connections ever accepted under this name — a
	// value above 1 means the sensor reconnected.
	Connects uint64 `json:"connects"`
	// Frames counts Data frames received from this sensor: exact at every
	// acknowledgement and at disconnect, at most 256 behind per live
	// connection in between (a handler publishes per batch).
	Frames uint64 `json:"frames"`
	// LastFrameAgeSec is the age of the newest frame counted, or -1 when
	// the sensor completed its handshake but has sent no data yet.
	LastFrameAgeSec float64 `json:"last_frame_age_sec"`
	// LastError is why the newest connection ended ("eof" for a clean
	// close), empty while none has.
	LastError string `json:"last_error,omitempty"`
	// DisconnectedAgeSec is how long the sensor has been without a
	// connection, or -1 while connected. Records older than the grace
	// period drop out of the listing entirely.
	DisconnectedAgeSec float64 `json:"disconnected_age_sec"`
}

// CollectorStats is the collector's ingest accounting. At quiescence
// the counters satisfy
//
//	Frames + Replayed = Deduped + DecodeErrors + Shed + Enqueued + Spilled
//
// — every received frame is deduplicated, rejected, shed, enqueued
// directly, or spilled; and every spilled, recovered or absorbed
// transaction re-enters through Replayed.
type CollectorStats struct {
	// Connections counts accepted sensor connections.
	Connections uint64
	// Frames counts Data frames received across all sensors.
	Frames uint64
	// Shed counts transactions dropped by the Shed overload policy.
	Shed uint64
	// DecodeErrors counts well-framed payloads that were not valid
	// transactions.
	DecodeErrors uint64
	// Deduped counts sequenced frames dropped as already-seen
	// (sensor, epoch, seq) replays.
	Deduped uint64
	// Acks counts acknowledgement frames sent to sensors.
	Acks uint64
	// Spilled counts journaled transactions deferred to the spill
	// tailer because the ingest queue was full.
	Spilled uint64
	// Replayed counts journal-sourced acceptances: spill drains,
	// restart recovery, and logs absorbed from dead peers. An absorbed
	// transaction that itself spills counts twice — once at absorption
	// and once when the tailer drains it — matching its two appearances
	// on the other side of the identity (Spilled and Enqueued).
	Replayed uint64
	// Enqueued counts transactions put on the ingest channel, from
	// either path.
	Enqueued uint64
}

// WALStatus reports the journal's health for /healthz.
type WALStatus struct {
	Dir        string `json:"dir"`
	Segments   int    `json:"segments"`
	SizeBytes  int64  `json:"size_bytes"`
	LastPos    uint64 `json:"last_pos"`
	Checkpoint uint64 `json:"checkpoint"`
	// Behind reports the spill tailer owning delivery (queue pressure).
	Behind bool `json:"behind"`
	// Recovered counts transactions re-enqueued by restart recovery.
	Recovered uint64 `json:"recovered"`
	// Error is the first journal failure, empty while healthy. A
	// failed journal stops acknowledgements: sensors buffer and
	// retransmit instead of being lied to about durability.
	Error string `json:"error,omitempty"`
}

// NewCollector returns a collector; start it with Serve.
func NewCollector(cfg CollectorConfig) *Collector {
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 4096
	}
	if cfg.SensorGrace <= 0 {
		cfg.SensorGrace = 10 * time.Minute
	}
	c := &Collector{
		cfg:     cfg,
		out:     make(chan *sie.Transaction, cfg.QueueLen),
		stop:    make(chan struct{}),
		conns:   map[net.Conn]struct{}{},
		sensors: map[string]*sensorState{},
		dedup:   map[string]map[uint64]*epochWindow{},
		kick:    make(chan struct{}, 1),
		m:       newCollectorMetrics(cfg.Metrics),
	}
	reg := cfg.Metrics
	reg.GaugeFunc(MetricQueueDepth, "transactions queued in the collector ingest channel",
		func() float64 { return float64(len(c.out)) }, "role", "collector")
	reg.GaugeFunc(MetricActiveConns, "live sensor connections",
		func() float64 { return float64(c.activeConns()) }, "role", "collector")
	return c
}

// OpenWAL attaches a journal in dir and recovers it: dedup windows are
// rebuilt from every retained record, and records past the last
// checkpoint — journaled but never confirmed consumed — are re-
// enqueued in position order. Call it after NewCollector and before
// the first connection. From then on a full queue spills to the journal
// whatever cfg.Overload says, and acknowledgements are sent only after
// the journal is synced.
func (c *Collector) OpenWAL(dir string, opts wal.Options) error {
	c.dmu.Lock()
	defer c.dmu.Unlock()
	if c.log != nil {
		return errors.New("transport: collector WAL already open")
	}
	log, err := wal.Open(dir, opts)
	if err != nil {
		return err
	}
	ckpt := log.Checkpointed()
	var pending uint64
	err = log.Replay(func(pos uint64, r wal.Record) error {
		if r.Kind == wal.KindData {
			c.claim(r.Sensor, r.Epoch, r.Seq)
			if pos > ckpt {
				pending++
			}
		}
		return nil
	})
	if err != nil {
		log.Close()
		return err
	}
	c.log = log
	c.nextRead = ckpt + 1
	c.recovered = pending
	c.behind = pending > 0
	c.tailWG.Add(1)
	go c.tailer()
	if c.behind {
		c.kickTailer()
	}
	reg := c.cfg.Metrics
	reg.GaugeFunc(MetricWALSize, "journal bytes appended and retained (up to 256 KiB of them staged, not yet written)",
		func() float64 { return float64(log.Size()) }, "role", "collector")
	reg.GaugeFunc(MetricWALSegments, "journal segment count",
		func() float64 { return float64(log.Segments()) }, "role", "collector")
	reg.GaugeFunc(MetricWALCheckpoint, "highest checkpointed journal position",
		func() float64 { return float64(log.Checkpointed()) }, "role", "collector")
	reg.CounterFunc(MetricWALAppends, "journal record appends",
		func() uint64 { return log.Stats().Appends }, "role", "collector")
	reg.CounterFunc(MetricWALWrites, "journal segment write calls (appends per write: how well the journal batches)",
		func() uint64 { return log.Stats().Writes }, "role", "collector")
	reg.CounterFunc(MetricWALSyncs, "journal fsyncs (appends per sync: the frames behind one acknowledgement barrier)",
		func() uint64 { return log.Stats().Syncs }, "role", "collector")
	return nil
}

// WALStatus reports journal health; ok is false without an open WAL.
func (c *Collector) WALStatus() (WALStatus, bool) {
	log := c.log
	if log == nil {
		return WALStatus{}, false
	}
	st := WALStatus{
		Dir:        log.Dir(),
		Segments:   log.Segments(),
		SizeBytes:  log.Size(),
		LastPos:    log.LastPos(),
		Checkpoint: log.Checkpointed(),
	}
	c.dmu.Lock()
	st.Behind, st.Recovered = c.behind, c.recovered
	if c.jerr != nil {
		st.Error = c.jerr.Error()
	}
	c.dmu.Unlock()
	return st, true
}

// Checkpoint records that the consumer has durably applied the first
// `consumed` transactions ever read off C() (cumulative, in channel
// order), then garbage-collects journal segments below that point.
// Call it when consumed state hits stable storage — after a snapshot
// flush — and once more after the final drain. No-op without a WAL.
func (c *Collector) Checkpoint(consumed uint64) error {
	log := c.log
	if log == nil {
		return nil
	}
	c.dmu.Lock()
	if consumed <= c.consumedBase || len(c.posLog) == 0 {
		c.dmu.Unlock()
		return nil
	}
	n := consumed - c.consumedBase
	if n > uint64(len(c.posLog)) {
		n = uint64(len(c.posLog))
	}
	pos := c.posLog[n-1]
	c.posLog = append(c.posLog[:0], c.posLog[n:]...)
	c.consumedBase += n
	c.dmu.Unlock()
	if _, err := log.Append(wal.Record{Kind: wal.KindCheckpoint, Seq: pos}); err != nil {
		return err
	}
	if err := log.Sync(); err != nil {
		return err
	}
	return log.TrimTo(pos)
}

// AbsorbLog replays a dead peer collector's journal into this one:
// every data record past the peer's last checkpoint — accepted by the
// peer but never confirmed consumed — goes through deliver as if its
// sensor had retransmitted it. keep filters by sensor name (nil takes
// everything): in a fleet, each survivor absorbs exactly the sensors
// the rebalanced ring assigns to it. Returns how many were absorbed and
// how many were already seen; with a nil error they are synced into
// this collector's journal. The peer's log must not have a live writer.
func (c *Collector) AbsorbLog(peer *wal.Log, keep func(sensor string) bool) (absorbed, deduped uint64, err error) {
	ckpt := peer.Checkpointed()
	var a arena
	err = peer.Replay(func(pos uint64, r wal.Record) error {
		if r.Kind != wal.KindData || pos <= ckpt || (keep != nil && !keep(r.Sensor)) {
			return nil
		}
		fresh, err := c.deliver(&a, r.Sensor, r.Epoch, r.Seq, r.Payload, true)
		switch {
		case err != nil:
			return err
		case fresh:
			absorbed++
		default:
			deduped++
		}
		return nil
	})
	if err == nil {
		err = c.synced()
	}
	return absorbed, deduped, err
}

// C returns the ordered ingest channel. It closes after Close, once
// every handler has exited; queued transactions remain readable. One
// may be held indefinitely: what it pins meanwhile is under arena.
func (c *Collector) C() <-chan *sie.Transaction { return c.out }

// Stats returns a snapshot of the collector's counters.
func (c *Collector) Stats() CollectorStats {
	return CollectorStats{
		Connections:  c.m.connections.Value(),
		Frames:       c.m.frames.Value(),
		Shed:         c.m.shed.Value(),
		DecodeErrors: c.m.decodeErrors.Value(),
		Deduped:      c.m.deduped.Value(),
		Acks:         c.m.acks.Value(),
		Spilled:      c.m.spilled.Value(),
		Replayed:     c.m.replayed.Value(),
		Enqueued:     c.m.enqueued.Value(),
	}
}

// Sensors returns per-sensor liveness, sorted by name. Disconnected
// sensors linger for the grace period with their last error, then drop
// out (their dedup state is retained independently).
func (c *Collector) Sensors() []SensorStatus {
	now := time.Now()
	c.mu.Lock()
	out := make([]SensorStatus, 0, len(c.sensors))
	for name, st := range c.sensors {
		if st.conns == 0 && !st.disconnectedAt.IsZero() &&
			now.Sub(st.disconnectedAt) > c.cfg.SensorGrace {
			delete(c.sensors, name)
			continue
		}
		s := SensorStatus{
			Name:               name,
			Connected:          st.conns > 0,
			Connects:           st.connects,
			Frames:             st.frames,
			LastFrameAgeSec:    -1,
			LastError:          st.lastErr,
			DisconnectedAgeSec: -1,
		}
		if !st.lastFrame.IsZero() {
			s.LastFrameAgeSec = now.Sub(st.lastFrame).Seconds()
		}
		if st.conns == 0 && !st.disconnectedAt.IsZero() {
			s.DisconnectedAgeSec = now.Sub(st.disconnectedAt).Seconds()
		}
		out = append(out, s)
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// activeConns returns the live connection count.
func (c *Collector) activeConns() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.conns)
}

// Serve accepts sensor connections on ln until Close (which closes the
// listener). It returns nil on a Close-triggered shutdown and the
// accept error otherwise. Run it on its own goroutine; it may be
// called for several listeners concurrently.
func (c *Collector) Serve(ln net.Listener) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		ln.Close()
		return nil
	}
	c.listeners = append(c.listeners, ln)
	c.serveWG.Add(1)
	c.mu.Unlock()
	defer c.serveWG.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			c.mu.Lock()
			closed := c.closed
			c.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		if c.cfg.WrapConn != nil {
			conn = c.cfg.WrapConn(conn)
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			conn.Close()
			return nil
		}
		c.conns[conn] = struct{}{}
		c.connWG.Add(1)
		c.mu.Unlock()
		c.m.connections.Inc()
		go c.handle(conn)
	}
}

// Close stops accepting, cuts every live connection, waits for the
// handlers and the spill tailer, and closes the ingest channel. Safe
// to call once; transactions already queued stay readable after it
// returns, and the WAL stays open for a final Checkpoint (CloseWAL
// releases it). Frames spilled but not yet replayed stay in the
// journal — the next OpenWAL re-enqueues them.
func (c *Collector) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	listeners := c.listeners
	conns := make([]net.Conn, 0, len(c.conns))
	for conn := range c.conns {
		conns = append(conns, conn)
	}
	c.mu.Unlock()
	close(c.stop)
	for _, ln := range listeners {
		ln.Close()
	}
	for _, conn := range conns {
		conn.Close() // unblocks any read in progress
	}
	c.serveWG.Wait()
	c.connWG.Wait()
	c.tailWG.Wait()
	close(c.out)
}

// CloseWAL syncs and closes the journal. Call after the final
// Checkpoint; the collector must already be closed.
func (c *Collector) CloseWAL() error {
	if c.log == nil {
		return nil
	}
	return c.log.Close()
}

// dropConn forgets a finished connection.
func (c *Collector) dropConn(conn net.Conn) {
	c.mu.Lock()
	delete(c.conns, conn)
	c.mu.Unlock()
}

// register binds a connection to its sensor name after the handshake.
func (c *Collector) register(name string) *sensorState {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.sensors[name]
	if st == nil {
		st = &sensorState{}
		c.sensors[name] = st
	}
	st.conns++
	st.connects++
	return st
}

// unregister releases a connection's claim on its sensor name,
// recording why it ended. The liveness record survives for the grace
// period (Connected goes false) so /healthz keeps reporting a sensor
// that died, and with what error.
func (c *Collector) unregister(st *sensorState, reason string) {
	c.mu.Lock()
	st.conns--
	st.lastErr = reason
	if st.conns == 0 {
		st.disconnectedAt = time.Now()
	}
	c.mu.Unlock()
}

// noteFrames moves *n received Data frames into a sensor's liveness, once
// per acknowledgement opportunity: the lock and the clock are per batch.
func (c *Collector) noteFrames(st *sensorState, n *uint64) {
	if *n == 0 {
		return
	}
	c.mu.Lock()
	st.frames += *n
	st.lastFrame = time.Now()
	c.mu.Unlock()
	*n = 0
}

// claim marks (name, epoch, seq) seen, reporting whether it was fresh.
// The caller holds dmu.
func (c *Collector) claim(name string, epoch, seq uint64) bool {
	epochs := c.dedup[name]
	if epochs == nil {
		epochs = map[uint64]*epochWindow{}
		c.dedup[name] = epochs
	}
	w := epochs[epoch]
	if w == nil {
		if len(epochs) >= maxEpochsPerSensor {
			var victim uint64 = ^uint64(0)
			for e := range epochs {
				if e < victim {
					victim = e
				}
			}
			delete(epochs, victim)
		}
		w = &epochWindow{}
		epochs[epoch] = w
	}
	return w.claim(seq)
}

// handle runs one connection: handshake, then Data frames until EOF,
// Bye, an error, or Close. A torn trailing frame (the sensor died or
// was cut mid-frame) is discarded here; the sensor retransmits it in
// full on its next connection, so the stream resumes on a frame
// boundary. Every frame is deduplicated and acknowledged —
// effectively-once across reconnects.
func (c *Collector) handle(conn net.Conn) {
	defer c.connWG.Done()
	defer c.dropConn(conn)
	defer conn.Close()
	wire := &deadlineReader{Conn: conn} // armed after the handshake, which has one deadline
	fr := NewFrameReader(wire)

	conn.SetReadDeadline(time.Now().Add(helloTimeout))
	typ, payload, err := fr.Next()
	if err != nil || typ != FrameHello {
		c.m.disconnectProt.Inc()
		return
	}
	name, epoch, err := ParseHello(payload)
	if err != nil {
		c.m.disconnectProt.Inc()
		return
	}
	conn.SetReadDeadline(time.Time{})
	wire.timeout = c.cfg.ReadTimeout
	st := c.register(name)
	reason := "eof"
	var unseen uint64 // Data frames since the last acknowledgement opportunity: not in the liveness record yet
	defer func() {
		c.synced() // nothing later flushes this connection's last frames; a failure is in WALStatus
		c.noteFrames(st, &unseen)
		c.unregister(st, reason)
	}()

	var a arena
	var lastSeq, ackedSeq uint64
	var ackBuf []byte
	maybeAck := func(force bool) error { // an error ends the connection
		if !force && fr.Buffered() > 0 && unseen < ackEvery {
			return nil
		}
		c.noteFrames(st, &unseen)
		if c.cfg.DisableAcks || lastSeq == ackedSeq {
			return nil
		}
		if err := c.synced(); err != nil {
			return err
		}
		conn.SetWriteDeadline(time.Now().Add(ackWriteTimeout))
		ackBuf = AppendAck(ackBuf[:0], lastSeq)
		if _, err := conn.Write(ackBuf); err != nil {
			return errors.New("ack write failed")
		}
		ackedSeq = lastSeq
		c.m.acks.Inc()
		return nil
	}

	for {
		typ, payload, err := fr.Next()
		if err == io.EOF {
			c.m.disconnectEOF.Inc()
			return
		}
		if err != nil {
			c.m.disconnectErr.Inc()
			reason = err.Error()
			return
		}
		switch typ {
		case FrameSeqData:
			c.m.frames.Inc()
			seq, txb, perr := ParseSeqData(payload)
			if perr != nil {
				c.m.disconnectProt.Inc()
				reason = perr.Error()
				return
			}
			if seq > lastSeq {
				lastSeq = seq
			}
			unseen++
			// A duplicate and an undecodable frame are acknowledged like
			// any other: retransmitting either cannot help.
			_, err := c.deliver(&a, name, epoch, seq, txb, false)
			if err == nil {
				err = maybeAck(false)
			}
			if err != nil {
				reason = err.Error()
				return
			}
		case FrameBye:
			maybeAck(true)
			c.m.disconnectEOF.Inc()
			return
		default: // a second Hello mid-stream, the reserved 0x02, an unknown type
			c.m.disconnectProt.Inc()
			reason = "protocol violation"
			return
		}
	}
}

// deadlineReader arms the read deadline where a read reaches the wire,
// not per frame (most come from the read buffer): a sensor is cut a
// timeout after it went quiet, inside a frame or between two, whatever
// time its handler spent delivering. A zero timeout arms nothing.
type deadlineReader struct {
	net.Conn
	timeout time.Duration
}

func (r *deadlineReader) Read(p []byte) (int, error) {
	if r.timeout > 0 {
		r.SetReadDeadline(time.Now().Add(r.timeout))
	}
	return r.Conn.Read(p)
}

// deliver is the one path a frame takes to the ingest channel, from a
// connection or (replay) from an absorbed journal. Inside one critical
// section it claims (sensor, epoch, seq), appends the raw bytes to the
// journal if there is one, and offers the decoded transaction to the
// queue. fresh is false for a sequence number already claimed; err is
// non-nil when the caller should stop (a failed journal append, or
// Close while waiting for room).
//
// Order holds by construction. Two connections of one (sensor, epoch) —
// a redial and the predecessor still working through its buffer — each
// run through the sequence numbers in ascending order; a number is
// claimed by exactly one of them; and nothing with a later number can
// be claimed, let alone journaled or enqueued, before that claim's
// section has ended. Queue order is journal-position order for the
// same reason: an append and its enqueue cannot be separated by
// another handler's, so nextRead never regresses past a position
// already delivered and the tailer never delivers one twice.
//
// A full queue is the only place the configurations differ. With a
// journal the frame is already in it: it spills, and the tailer
// replays it. Without one, Shed drops it, and Block waits for room
// holding the section — deliberately across a channel send — so every
// other handler queues up behind this one in the order it will enqueue
// in, instead of overtaking it.
func (c *Collector) deliver(a *arena, name string, epoch, seq uint64, raw []byte, replay bool) (fresh bool, err error) {
	// Decoding stays outside the section; a duplicate pays for one it
	// did not need, which only a retransmission ever does.
	tx, derr := a.decode(raw)
	c.dmu.Lock()
	if fresh = c.claim(name, epoch, seq); !fresh || derr != nil {
		// Claimed first, counted second: a retransmission of an
		// undecodable frame is a duplicate, not a second reject.
		c.dmu.Unlock()
		if !fresh {
			a.takeBack()
			c.m.deduped.Inc()
			return false, nil
		}
		c.m.decodeErrors.Inc()
		if c.cfg.OnReject != nil {
			c.cfg.OnReject(derr)
		}
		return true, nil
	}
	defer c.dmu.Unlock()
	if replay {
		// An absorbed frame that spills counts as a replay now (the
		// absorb accepted it) and again when the tailer drains it —
		// both sides of the accounting identity see the spill cycle.
		c.m.replayed.Inc()
	}
	var pos uint64
	if c.log != nil {
		// Staged: synced writes it, in front of the first promise it survives.
		pos, err = c.log.Stage(wal.Record{Kind: wal.KindData, Sensor: name, Epoch: epoch, Seq: seq, Payload: raw})
		if err != nil {
			a.takeBack()
			c.journalFailed(err)
			return true, err
		}
	}
	switch {
	case !c.behind && c.offer(tx, false):
		if c.log != nil {
			c.posLog = append(c.posLog, pos)
			c.nextRead = pos + 1
		}
	case c.log != nil:
		a.takeBack()
		c.behind = true
		c.m.spilled.Inc()
		c.kickTailer()
	case c.cfg.Overload == Shed:
		a.takeBack()
		c.m.shed.Inc()
	default: // Block
		if !c.offer(tx, true) {
			a.takeBack()
			return true, errors.New("transport: collector closing")
		}
	}
	return true, nil
}

const (
	// ≈ 65 frame bodies a malloc, and inside the allocator's size classes:
	// from 32 KiB a block is a span of its own, faulted in afresh.
	chunkBytes = 16 << 10
	// What fills the 8 KiB class: a slab rounds up to nothing.
	slabTxs = 8192 / int(unsafe.Sizeof(sie.Transaction{}))
)

// arena is what one reader of frames — a connection handler, the spill
// tailer, an AbsorbLog call — decodes into: bodies carved from chunks,
// transactions from slabs, not two mallocs a frame. Nothing handed out is
// reused, so as far as a holder can tell a transaction owns its bytes;
// holding one pins its slab and the chunks under that slab's
// transactions, ≈ 40 KiB.
type arena struct {
	chunk, lastChunk []byte            // unused tail of the current chunk, and before the last decode
	slab, lastSlab   []sie.Transaction // unused tail of the current slab, and before the last decode
}

// decode parses one frame body into a transaction that owns its bytes
// (raw is a read buffer the next frame overwrites). An undecodable frame
// takes nothing: its bytes and its slot go to the next one.
func (a *arena) decode(raw []byte) (*sie.Transaction, error) {
	if len(raw) > len(a.chunk) { // what is left of the old chunk goes
		a.chunk = make([]byte, max(chunkBytes, len(raw)))
	}
	if len(a.slab) == 0 {
		a.slab = make([]sie.Transaction, slabTxs)
	}
	body, tx := a.chunk[:len(raw):len(raw)], &a.slab[0]
	copy(body, raw)
	a.lastChunk, a.lastSlab = a.chunk, a.slab
	if err := tx.Unmarshal(body); err != nil {
		return nil, err
	}
	a.chunk, a.slab = a.chunk[len(raw):], a.slab[1:]
	return tx, nil
}

// takeBack returns the last decode's space: its transaction, if any,
// went to no holder (a duplicate, a spilled or a shed frame).
func (a *arena) takeBack() { a.chunk, a.slab = a.lastChunk, a.lastSlab }

// offer puts tx on the ingest channel if there is room and, when wait
// is set, as soon as there is. It reports false for a full queue, or
// for Close having begun while it waited.
func (c *Collector) offer(tx *sie.Transaction, wait bool) bool {
	select {
	case c.out <- tx:
	default:
		if !wait {
			return false
		}
		select {
		case c.out <- tx:
		case <-c.stop:
			return false
		}
	}
	c.m.enqueued.Inc()
	return true
}

// journalFailed records the first journal failure. Acknowledgements
// stop; delivery of what is already queued continues. The caller holds
// dmu.
func (c *Collector) journalFailed(err error) {
	if c.jerr == nil {
		c.jerr = err
	}
}

// synced is the durability barrier in front of an acknowledgement:
// never acknowledge a frame the journal has not persisted. It writes
// what any connection staged since the last one, and fsyncs. Once the
// journal has failed it returns that first failure — acks stop entirely,
// and the sensor keeps buffering instead of being lied to. Without a
// journal an acknowledgement promises the queue only, and that is done.
func (c *Collector) synced() error {
	if c.log == nil {
		return nil
	}
	c.dmu.Lock()
	err := c.jerr
	c.dmu.Unlock()
	if err != nil {
		return err
	}
	if err = c.log.Sync(); err != nil {
		c.dmu.Lock()
		c.journalFailed(err)
		c.dmu.Unlock()
	}
	return err
}

func (c *Collector) kickTailer() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// tailer is the replay half of spill-then-replay: whenever delivery
// falls behind the journal it drains the journal into the queue, then
// hands delivery back to the direct path.
func (c *Collector) tailer() {
	defer c.tailWG.Done()
	var a arena // one for all drains: a fresh one per drain, let alone per record, wastes a chunk each
	for {
		select {
		case <-c.stop:
			return
		case <-c.kick:
			if !c.drainJournal(&a) {
				return
			}
		}
	}
}

// drainJournal reads forward from nextRead and feeds the queue until it
// has caught up with the appends (blocking — backpressure lands on the
// journal, which is exactly where it is durable). While behind is set
// it is the only sender, so it offers outside the delivery section and
// handlers keep spilling meanwhile. It reports false when Close began
// before it was done; what it did not reach stays journaled past
// nextRead, and the next OpenWAL re-enqueues it.
func (c *Collector) drainJournal(a *arena) bool {
	c.dmu.Lock()
	behind, start := c.behind, c.nextRead
	c.dmu.Unlock()
	if !behind {
		return true
	}
	cur := c.log.NewCursor(start)
	defer cur.Close()
	for {
		pos, rec, ok, err := cur.Next()
		if err != nil || !ok {
			// A failed journal ends the spill; otherwise this is caught
			// up — unless an append slipped in between the read and this
			// check, in which case keep going.
			c.dmu.Lock()
			if err != nil {
				c.journalFailed(err)
			}
			done := err != nil || cur.Pos() > c.log.LastPos()
			if done {
				c.behind = false
			}
			c.dmu.Unlock()
			if done {
				return true
			}
			continue
		}
		sent := false
		if rec.Kind == wal.KindData {
			tx, derr := a.decode(rec.Payload)
			switch {
			case derr != nil:
				// Only decodable frames are ever journaled: treat this as
				// corruption-equivalent and skip it, accounted.
				c.m.decodeErrors.Inc()
			case !c.offer(tx, true):
				return false
			default:
				c.m.replayed.Inc()
				sent = true
			}
		}
		c.dmu.Lock()
		if sent {
			c.posLog = append(c.posLog, pos)
		}
		c.nextRead = pos + 1
		c.dmu.Unlock()
	}
}

// Listen opens a listener for a SplitAddr-style address: "host:port"
// or "tcp:host:port" for TCP, "unix:/path" for a Unix socket (a stale
// socket file from a previous run is removed first).
func Listen(addr string) (net.Listener, error) {
	network, address := SplitAddr(addr)
	if network == "unix" {
		removeStaleSocket(address)
	}
	return net.Listen(network, address)
}
