package transport

import (
	"errors"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"dnsobservatory/internal/metrics"
	"dnsobservatory/internal/sie"
	"dnsobservatory/internal/wal"
)

// OverloadPolicy selects what a connection handler does when the
// collector's ingest channel is full. It mirrors the sharded engine's
// policy of the same name (observatory.Block / observatory.Shed) one
// layer down the stack.
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
// stopped reading acks cannot wedge its handler.
const ackWriteTimeout = 5 * time.Second

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
	// Overload selects the bounded-queue policy: Block (default)
	// applies backpressure, Shed drops with accounting. A collector
	// with a WAL (OpenWAL) ignores it: a full queue spills to the log
	// and a tailer replays, so reads never stall and nothing drops.
	Overload OverloadPolicy
	// ReadTimeout, when positive, is the per-frame read deadline: a
	// sensor that stalls mid-stream longer than this is cut (it will
	// reconnect and resume). 0 disables deadlines.
	ReadTimeout time.Duration
	// HelloTimeout bounds the wait for the handshake frame on a new
	// connection (default 10s).
	HelloTimeout time.Duration
	// AckEvery forces an acknowledgement at least every N sequenced
	// frames on a busy connection (default 256); on an idle one the
	// collector acks as soon as its read buffer drains.
	AckEvery int
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
// frame order is preserved (TCP FIFO per connection), interleaving
// between sensors is arrival order. Transactions on the channel own
// their buffers; the consumer may hold them indefinitely.
//
// Sequenced sensors (version-2 hello) get effectively-once delivery:
// the collector deduplicates (sensor, epoch, seq) replays against a
// sliding window and acknowledges accepted sequence numbers, so a
// reconnecting sensor retransmits its unacknowledged batch and only
// the genuinely-new frames pass. With a WAL attached (OpenWAL),
// accepted frames are journaled before they are acknowledged, overload
// spills to the log instead of dropping or stalling, and a restart
// replays everything past the last consumer checkpoint.
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
	// stop unblocks handlers waiting on a full ingest channel under
	// the Block policy once Close begins.
	stop chan struct{}

	mu        sync.Mutex
	closed    bool
	listeners []net.Listener
	conns     map[net.Conn]struct{}
	sensors   map[string]*sensorState
	// dedup is the seen-sequence state, keyed sensor name → epoch.
	// Deliberately separate from the liveness records: those are pruned
	// after SensorGrace, dedup marks must outlive a long disconnect.
	dedup map[string]map[uint64]*epochWindow

	ws *walState // nil without OpenWAL

	serveWG sync.WaitGroup // accept loops
	connWG  sync.WaitGroup // connection handlers

	m *collectorMetrics
}

// walState is the durable-ingest half of a collector: the journal, the
// spill tailer's position, and the consumed-position log that turns
// consumer progress into checkpoints.
type walState struct {
	log *wal.Log

	mu sync.Mutex
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
	lastCkpt     uint64
	err          error // first journal failure; poisons acks

	kick chan struct{}
	wg   sync.WaitGroup

	recovered uint64 // data records re-enqueued by restart recovery
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
	// Frames counts Data frames received from this sensor.
	Frames uint64 `json:"frames"`
	// LastFrameAgeSec is the age of the newest frame, or -1 when the
	// sensor completed its handshake but has sent no data yet.
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
	if cfg.HelloTimeout <= 0 {
		cfg.HelloTimeout = 10 * time.Second
	}
	if cfg.AckEvery <= 0 {
		cfg.AckEvery = 256
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
		m:       newCollectorMetrics(cfg.Metrics),
	}
	if reg := cfg.Metrics; reg != nil {
		reg.GaugeFunc(MetricQueueDepth, "transactions queued in the collector ingest channel",
			func() float64 { return float64(len(c.out)) }, "role", "collector")
		reg.GaugeFunc(MetricActiveConns, "live sensor connections",
			func() float64 { return float64(c.activeConns()) }, "role", "collector")
	}
	return c
}

// OpenWAL attaches a journal in dir and recovers it: dedup windows are
// rebuilt from every retained record, and records past the last
// checkpoint — journaled but never confirmed consumed — are re-
// enqueued in position order. Call it after NewCollector and before
// Serve. With a WAL attached the overload policy is spill-then-replay
// regardless of cfg.Overload, and acknowledgements are sent only after
// the journal is synced.
func (c *Collector) OpenWAL(dir string, opts wal.Options) error {
	if c.ws != nil {
		return errors.New("transport: collector WAL already open")
	}
	log, err := wal.Open(dir, opts)
	if err != nil {
		return err
	}
	ws := &walState{log: log, kick: make(chan struct{}, 1)}
	var pending uint64
	err = log.Replay(func(pos uint64, r wal.Record) error {
		switch r.Kind {
		case wal.KindData:
			if r.Epoch != 0 {
				c.claim(r.Sensor, r.Epoch, r.Seq)
			}
			if pos > ws.lastCkpt {
				pending++
			}
		case wal.KindCheckpoint:
			if r.Seq > ws.lastCkpt {
				ws.lastCkpt = r.Seq
			}
		}
		return nil
	})
	if err != nil {
		log.Close()
		return err
	}
	// Records checkpointed before positions counted as pending above —
	// a checkpoint record follows the data it covers, so recount.
	if ws.lastCkpt > 0 {
		pending = 0
		err = log.Replay(func(pos uint64, r wal.Record) error {
			if r.Kind == wal.KindData && pos > ws.lastCkpt {
				pending++
			}
			return nil
		})
		if err != nil {
			log.Close()
			return err
		}
	}
	ws.nextRead = ws.lastCkpt + 1
	ws.recovered = pending
	if pending > 0 {
		ws.behind = true
	}
	c.ws = ws
	ws.wg.Add(1)
	go c.tailer()
	if pending > 0 {
		ws.kickTailer()
	}
	if reg := c.cfg.Metrics; reg != nil {
		reg.GaugeFunc(MetricWALSize, "journal size on disk",
			func() float64 { return float64(log.Size()) }, "role", "collector")
		reg.GaugeFunc(MetricWALSegments, "journal segment count",
			func() float64 { return float64(log.Segments()) }, "role", "collector")
		reg.GaugeFunc(MetricWALCheckpoint, "highest checkpointed journal position",
			func() float64 { ws.mu.Lock(); defer ws.mu.Unlock(); return float64(ws.lastCkpt) }, "role", "collector")
		reg.CounterFunc(MetricWALAppends, "journal record appends",
			func() uint64 { return log.Stats().Appends }, "role", "collector")
	}
	return nil
}

// WALStatus reports journal health; ok is false without an open WAL.
func (c *Collector) WALStatus() (WALStatus, bool) {
	ws := c.ws
	if ws == nil {
		return WALStatus{}, false
	}
	ws.mu.Lock()
	st := WALStatus{
		Dir:        ws.log.Dir(),
		Segments:   ws.log.Segments(),
		SizeBytes:  ws.log.Size(),
		LastPos:    ws.log.LastPos(),
		Checkpoint: ws.lastCkpt,
		Behind:     ws.behind,
		Recovered:  ws.recovered,
	}
	if ws.err != nil {
		st.Error = ws.err.Error()
	}
	ws.mu.Unlock()
	return st, true
}

// Checkpoint records that the consumer has durably applied the first
// `consumed` transactions ever read off C() (cumulative, in channel
// order), then garbage-collects journal segments below that point.
// Call it when consumed state hits stable storage — after a snapshot
// flush — and once more after the final drain. No-op without a WAL.
func (c *Collector) Checkpoint(consumed uint64) error {
	ws := c.ws
	if ws == nil {
		return nil
	}
	ws.mu.Lock()
	if consumed <= ws.consumedBase || len(ws.posLog) == 0 {
		ws.mu.Unlock()
		return nil
	}
	n := consumed - ws.consumedBase
	if n > uint64(len(ws.posLog)) {
		n = uint64(len(ws.posLog))
	}
	pos := ws.posLog[n-1]
	ws.posLog = append(ws.posLog[:0], ws.posLog[n:]...)
	ws.consumedBase += n
	ws.lastCkpt = pos
	ws.mu.Unlock()
	if _, err := ws.log.Append(wal.Record{Kind: wal.KindCheckpoint, Seq: pos}); err != nil {
		return err
	}
	if err := ws.log.Sync(); err != nil {
		return err
	}
	return ws.log.TrimTo(pos)
}

// AbsorbLog replays a dead peer collector's journal into this one:
// every data record past the peer's last checkpoint — accepted by the
// peer but never confirmed consumed — runs through this collector's
// dedup, journal and queue as if its sensor had retransmitted it. keep
// filters by sensor name (nil takes everything): in a fleet, each
// survivor absorbs exactly the sensors the rebalanced ring assigns to
// it. Returns how many were absorbed and how many were already seen.
// The peer's log must not have a live writer.
func (c *Collector) AbsorbLog(peer *wal.Log, keep func(sensor string) bool) (absorbed, deduped uint64, err error) {
	var peerCkpt uint64
	err = peer.Replay(func(_ uint64, r wal.Record) error {
		if r.Kind == wal.KindCheckpoint && r.Seq > peerCkpt {
			peerCkpt = r.Seq
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	err = peer.Replay(func(pos uint64, r wal.Record) error {
		if r.Kind != wal.KindData || pos <= peerCkpt {
			return nil
		}
		if keep != nil && !keep(r.Sensor) {
			return nil
		}
		if r.Epoch != 0 && !c.claim(r.Sensor, r.Epoch, r.Seq) {
			deduped++
			c.m.deduped.Inc()
			return nil
		}
		tx := new(sie.Transaction)
		body := append([]byte(nil), r.Payload...)
		if uerr := tx.Unmarshal(body); uerr != nil {
			c.m.decodeErrors.Inc()
			return nil
		}
		if c.ws != nil {
			if _, _, jerr := c.journalAndDeliver(r.Sensor, r.Epoch, r.Seq, r.Payload, tx, true); jerr != nil {
				return jerr
			}
		} else {
			select {
			case c.out <- tx:
				c.m.enqueued.Inc()
				c.m.replayed.Inc()
			case <-c.stop:
				return errors.New("transport: collector closing")
			}
		}
		absorbed++
		return nil
	})
	return absorbed, deduped, err
}

// C returns the ordered ingest channel. It closes after Close, once
// every handler has exited; queued transactions remain readable.
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
	if c.ws != nil {
		c.ws.wg.Wait()
	}
	close(c.out)
}

// CloseWAL syncs and closes the journal. Call after the final
// Checkpoint; the collector must already be closed.
func (c *Collector) CloseWAL() error {
	if c.ws == nil {
		return nil
	}
	if err := c.ws.log.Sync(); err != nil {
		c.ws.log.Close()
		return err
	}
	return c.ws.log.Close()
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

// noteFrame updates a sensor's liveness for one received Data frame.
func (c *Collector) noteFrame(st *sensorState) {
	c.mu.Lock()
	st.frames++
	st.lastFrame = time.Now()
	c.mu.Unlock()
}

// noteSeqFrame is noteFrame plus the dedup claim, one lock for both.
// fresh reports whether (epoch, seq) was first-seen.
func (c *Collector) noteSeqFrame(st *sensorState, name string, epoch, seq uint64) (fresh bool) {
	c.mu.Lock()
	st.frames++
	st.lastFrame = time.Now()
	fresh = c.claimLocked(name, epoch, seq)
	c.mu.Unlock()
	return fresh
}

// claim marks (name, epoch, seq) seen, reporting whether it was fresh.
func (c *Collector) claim(name string, epoch, seq uint64) bool {
	c.mu.Lock()
	fresh := c.claimLocked(name, epoch, seq)
	c.mu.Unlock()
	return fresh
}

func (c *Collector) claimLocked(name string, epoch, seq uint64) bool {
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
// boundary. Frames of a sensor that named its epoch are deduplicated
// and acknowledged — effectively-once across reconnects; those of a
// version-1 sensor (no epoch) stay at-least-once.
func (c *Collector) handle(conn net.Conn) {
	defer c.connWG.Done()
	defer c.dropConn(conn)
	defer conn.Close()
	fr := NewFrameReader(conn)

	conn.SetReadDeadline(time.Now().Add(c.cfg.HelloTimeout))
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
	st := c.register(name)
	reason := "eof"
	defer func() { c.unregister(st, reason) }()

	// Acks flow only on sequenced (v2) connections: a v1 sensor never
	// reads, and unread acks would eventually wedge the write.
	acks := epoch != 0 && !c.cfg.DisableAcks
	var lastSeq, ackedSeq uint64
	var ackBuf []byte
	maybeAck := func(force bool) bool {
		if !acks || lastSeq == ackedSeq {
			return true
		}
		if !force && fr.Buffered() > 0 && lastSeq-ackedSeq < uint64(c.cfg.AckEvery) {
			return true
		}
		if ws := c.ws; ws != nil {
			// Durability barrier: never acknowledge a frame the journal
			// has not persisted. A failed journal stops acks entirely —
			// the sensor keeps buffering instead of being lied to.
			ws.mu.Lock()
			broken := ws.err != nil
			ws.mu.Unlock()
			if broken {
				return true
			}
			if err := ws.log.Sync(); err != nil {
				c.walFail(err)
				return true
			}
		}
		conn.SetWriteDeadline(time.Now().Add(ackWriteTimeout))
		ackBuf = AppendAck(ackBuf[:0], lastSeq)
		if _, err := conn.Write(ackBuf); err != nil {
			return false
		}
		ackedSeq = lastSeq
		c.m.acks.Inc()
		return true
	}

	for {
		if c.cfg.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(c.cfg.ReadTimeout))
		} else {
			conn.SetReadDeadline(time.Time{})
		}
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
			fresh := true
			if epoch != 0 {
				fresh = c.noteSeqFrame(st, name, epoch, seq)
			} else {
				c.noteFrame(st)
			}
			if !fresh {
				c.m.deduped.Inc()
				if !maybeAck(false) {
					reason = "ack write failed"
					return
				}
				continue
			}
			body := make([]byte, len(txb))
			copy(body, txb)
			tx := new(sie.Transaction)
			if err := tx.Unmarshal(body); err != nil {
				// Accounted and acknowledged: retransmitting an
				// undecodable payload cannot help.
				c.m.decodeErrors.Inc()
				if c.cfg.OnReject != nil {
					c.cfg.OnReject(err)
				}
				if !maybeAck(false) {
					reason = "ack write failed"
					return
				}
				continue
			}
			if c.ws != nil {
				if ok, _, err := c.journalAndDeliver(name, epoch, seq, txb, tx, false); err != nil || !ok {
					reason = "collector closing"
					return
				}
			} else if !c.enqueue(tx) {
				reason = "collector closing"
				return
			}
			if !maybeAck(false) {
				reason = "ack write failed"
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

// journalAndDeliver is the durable ingest path: append the raw
// transaction bytes to the journal, then either enqueue directly (tx,
// already decoded) or leave delivery to the spill tailer when the
// queue is full or the tailer is already behind — order through the
// queue always matches journal position order. replay marks the
// transaction as journal-sourced (AbsorbLog) for the Replayed counter.
// ok is false only when the collector is closing.
func (c *Collector) journalAndDeliver(name string, epoch, seq uint64, raw []byte, tx *sie.Transaction, replay bool) (ok bool, spilled bool, err error) {
	ws := c.ws
	// The append happens under ws.mu: concurrent handlers must enqueue
	// in journal order, or nextRead can regress past a position another
	// handler already delivered and the tailer would deliver it twice.
	ws.mu.Lock()
	pos, err := ws.log.Append(wal.Record{Kind: wal.KindData, Sensor: name, Epoch: epoch, Seq: seq, Payload: raw})
	if err != nil {
		ws.mu.Unlock()
		c.walFail(err)
		return false, false, err
	}
	if !ws.behind {
		select {
		case c.out <- tx:
			ws.posLog = append(ws.posLog, pos)
			ws.nextRead = pos + 1
			ws.mu.Unlock()
			c.m.enqueued.Inc()
			if replay {
				c.m.replayed.Inc()
			}
			return true, false, nil
		case <-c.stop:
			// Closing with a full queue: the frame is safely journaled
			// past nextRead; the next OpenWAL replays it.
			ws.mu.Unlock()
			return false, true, nil
		default:
			ws.behind = true
		}
	}
	ws.mu.Unlock()
	c.m.spilled.Inc()
	if replay {
		// An absorbed frame that spills counts as a replay now (the
		// absorb accepted it) and again when the tailer drains it —
		// both sides of the accounting identity see the spill cycle.
		c.m.replayed.Inc()
	}
	ws.kickTailer()
	return true, true, nil
}

// walFail records the first journal failure. Acknowledgements stop;
// delivery of what is already queued continues.
func (c *Collector) walFail(err error) {
	ws := c.ws
	ws.mu.Lock()
	if ws.err == nil {
		ws.err = err
	}
	ws.mu.Unlock()
}

func (ws *walState) kickTailer() {
	select {
	case ws.kick <- struct{}{}:
	default:
	}
}

// tailer is the replay half of spill-then-replay: whenever delivery
// falls behind the journal, it reads forward from nextRead and feeds
// the queue (blocking — backpressure lands on the journal, which is
// exactly where it is durable), then hands delivery back to the direct
// path once caught up.
func (c *Collector) tailer() {
	ws := c.ws
	defer ws.wg.Done()
	var cur *wal.Cursor
	defer func() {
		if cur != nil {
			cur.Close()
		}
	}()
	for {
		select {
		case <-c.stop:
			return
		case <-ws.kick:
		}
		for {
			ws.mu.Lock()
			if !ws.behind {
				ws.mu.Unlock()
				break
			}
			start := ws.nextRead
			ws.mu.Unlock()
			if cur == nil {
				cur = ws.log.NewCursor(start)
			}
			pos, rec, ok, err := cur.Next()
			if err != nil {
				c.walFail(err)
				ws.mu.Lock()
				ws.behind = false
				ws.mu.Unlock()
				cur.Close()
				cur = nil
				break
			}
			if !ok {
				// Caught up — unless an append slipped in between the read
				// and this check, in which case keep going.
				ws.mu.Lock()
				if cur.Pos() > ws.log.LastPos() {
					ws.behind = false
					ws.mu.Unlock()
					cur.Close()
					cur = nil
					break
				}
				ws.mu.Unlock()
				continue
			}
			if rec.Kind != wal.KindData {
				ws.mu.Lock()
				ws.nextRead = pos + 1
				ws.mu.Unlock()
				continue
			}
			tx := new(sie.Transaction)
			body := append([]byte(nil), rec.Payload...)
			if uerr := tx.Unmarshal(body); uerr != nil {
				// Journaled records decoded once already; treat a failure
				// here as corruption-equivalent and skip it, accounted.
				c.m.decodeErrors.Inc()
				ws.mu.Lock()
				ws.nextRead = pos + 1
				ws.mu.Unlock()
				continue
			}
			select {
			case c.out <- tx:
			case <-c.stop:
				return
			}
			ws.mu.Lock()
			ws.posLog = append(ws.posLog, pos)
			ws.nextRead = pos + 1
			ws.mu.Unlock()
			c.m.enqueued.Inc()
			c.m.replayed.Inc()
		}
	}
}

// enqueue applies the overload policy (the no-WAL path). It reports
// false only when the collector is closing (the handler should exit).
func (c *Collector) enqueue(tx *sie.Transaction) bool {
	if c.cfg.Overload == Shed {
		select {
		case c.out <- tx:
			c.m.enqueued.Inc()
		default:
			c.m.shed.Inc()
		}
		return true
	}
	select {
	case c.out <- tx:
		c.m.enqueued.Inc()
		return true
	case <-c.stop:
		return false
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
