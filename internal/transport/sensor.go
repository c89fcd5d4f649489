package transport

import (
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync/atomic"
	"time"

	"dnsobservatory/internal/metrics"
	"dnsobservatory/internal/sie"
	"dnsobservatory/internal/wal"
)

// ErrSensorClosed is returned by Write and Flush after Close.
var ErrSensorClosed = errors.New("transport: sensor is closed")

// SensorConfig tunes a Sensor. Addr is required unless Dial is set.
type SensorConfig struct {
	// Addr is the collector address in SplitAddr form ("host:port",
	// "tcp:host:port" or "unix:/path").
	Addr string
	// Name identifies this sensor in the handshake (default "sensor").
	// The collector keys per-sensor liveness and dedup by it, so names
	// must be unique across a fleet.
	Name string
	// Epoch identifies this sensor incarnation for collector-side
	// dedup. 0 (the default) derives a random nonzero epoch — or, with
	// a WAL holding unacknowledged frames, recovers the previous
	// incarnation's epoch so retransmitted frames keep their identity.
	// Tests set it for determinism.
	Epoch uint64
	// WALDir, when set, spills the unacknowledged batch to a write-
	// ahead log in that directory: every transaction is journaled
	// before it is buffered (and synced before it goes on the wire),
	// acknowledgements are journaled as they arrive, and a restarted
	// sensor resumes retransmission of everything unacknowledged.
	WALDir string
	// WALSegmentBytes tunes the spill log's rotation threshold
	// (default 1 MiB); the log is reset whenever every frame is
	// acknowledged and it has grown past the threshold.
	WALSegmentBytes int
	// DialTimeout bounds one connection attempt (default 5s).
	DialTimeout time.Duration
	// WriteTimeout is the per-flush write deadline (default 10s): a
	// collector that stops reading fails the write instead of hanging
	// the sensor forever, and the reconnect logic takes over.
	WriteTimeout time.Duration
	// AckTimeout bounds one blocking wait for acknowledgements during
	// Close (default = WriteTimeout). A window passing with no
	// progress counts as a failed attempt and forces a reconnect-and-
	// retransmit cycle, bounded by MaxAttempts.
	AckTimeout time.Duration
	// FlushBytes is the unsent-frame threshold that triggers a wire
	// write (default 32 KiB). Write flushes automatically past it;
	// call Flush to bound latency on a slow stream.
	FlushBytes int
	// BackoffMin/BackoffMax bound the jittered exponential reconnect
	// backoff (defaults 50ms / 5s).
	BackoffMin time.Duration
	BackoffMax time.Duration
	// MaxAttempts is the number of consecutive failed connect-or-write
	// attempts before Write/Flush/Close give up and return the error.
	// 0 means the default (8); negative retries forever.
	MaxAttempts int
	// Seed drives backoff jitter (default 1; fixed so failing runs
	// replay).
	Seed int64
	// Metrics, when set, receives the sensor's dnsobs_transport_*
	// families labeled with Name.
	Metrics *metrics.Registry
	// Dial overrides the connection factory (tests, chaos, fleet
	// routing). Default dials Addr.
	Dial func() (net.Conn, error)
	// WrapConn, when set, wraps every dialed connection — the chaos
	// injection point for network faults on the sensor side.
	WrapConn func(net.Conn) net.Conn
}

// SensorStats is a snapshot of one sensor's transport counters.
type SensorStats struct {
	// Connects counts successful connection establishments (dial plus
	// handshake write).
	Connects uint64
	// Reconnects counts re-establishments after a lost connection:
	// Connects minus the first.
	Reconnects uint64
	// Frames counts Data frames put on the wire by a successful write,
	// retransmissions included.
	Frames uint64
	// Acked is the highest cumulative sequence number the collector
	// has acknowledged — equivalently, the count of transactions
	// delivered with certainty.
	Acked uint64
	// Unacked is the depth of the unacknowledged batch: transactions
	// written but not yet acknowledged, which a reconnect (or a
	// restart, with a WAL) would retransmit.
	Unacked uint64
	// Spilled counts transactions journaled to the write-ahead log.
	Spilled uint64
	// Recovered counts unacknowledged transactions restored from the
	// write-ahead log at construction.
	Recovered uint64
}

// frameOff marks one pending frame in Sensor.buf: its sequence number
// and the buffer offset one past its encoding.
type frameOff struct {
	seq uint64
	end int
}

// Sensor is the client half of the transport: it serializes
// transactions into sequenced Data frames, batches them, and ships
// them to a collector with write deadlines and jittered exponential-
// backoff reconnect. Delivery is acknowledgement-driven: a frame
// leaves the pending batch only when the collector acknowledges its
// sequence number (having journaled it when running a WAL), so on a
// lost connection — or a process restart, when WALDir is set — the
// entire unacknowledged batch is retransmitted from the start and the
// collector dedups the overlap: effectively-once delivery end to end.
//
// A Sensor is not safe for concurrent use: one goroutine owns
// Write/Flush/Close. Stats is safe to call from other goroutines.
type Sensor struct {
	cfg   SensorConfig
	conn  net.Conn
	epoch uint64

	// buf holds the pending frames, frame-encoded: [head:sent) is
	// sent-but-unacknowledged, [sent:] is unsent. offs aligns one
	// entry per pending frame; sentFrames counts the sent ones.
	buf        []byte
	head, sent int
	offs       []frameOff
	sentFrames int
	seq        uint64 // last assigned sequence number

	log    *wal.Log
	walErr error // a failed WAL poisons the sensor: durability first

	ackTail []byte // partial ack-frame accumulator across sweeps
	readBuf []byte

	scratch []byte // transaction serialization scratch
	hello   []byte // pre-encoded handshake frame
	rng     *rand.Rand
	fails   int // consecutive failed attempts
	lastErr error
	ever    bool // connected at least once
	closed  bool

	acked     atomic.Uint64
	unacked   atomic.Uint64
	spilled   atomic.Uint64
	recovered uint64

	m *sensorMetrics
}

// NewSensor returns a sensor; the first Write or Flush dials. When
// WALDir is set and its log cannot be opened or recovered, the sensor
// is poisoned: every Write/Flush/Close returns the recovery error —
// durability was asked for and cannot be silently dropped.
func NewSensor(cfg SensorConfig) *Sensor {
	if cfg.Name == "" {
		cfg.Name = "sensor"
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 10 * time.Second
	}
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = cfg.WriteTimeout
	}
	if cfg.FlushBytes <= 0 {
		cfg.FlushBytes = 32 << 10
	}
	if cfg.WALSegmentBytes <= 0 {
		cfg.WALSegmentBytes = 1 << 20
	}
	if cfg.BackoffMin <= 0 {
		cfg.BackoffMin = 50 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 5 * time.Second
	}
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = 8
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	s := &Sensor{
		cfg:   cfg,
		epoch: cfg.Epoch,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		m:     newSensorMetrics(cfg.Metrics, cfg.Name),
	}
	if cfg.WALDir != "" {
		if err := s.openWAL(); err != nil {
			s.walErr = fmt.Errorf("transport: sensor %q: wal: %w", cfg.Name, err)
		}
	}
	if s.epoch == 0 {
		s.epoch = randomEpoch()
	}
	s.hello = AppendHelloEpoch(nil, cfg.Name, s.epoch)
	cfg.Metrics.GaugeFunc(MetricUnacked, "transactions written but not yet acknowledged by the collector",
		func() float64 { return float64(s.unacked.Load()) }, "sensor", cfg.Name)
	return s
}

// randomEpoch derives a nonzero incarnation epoch. Collisions across
// restarts or hosts would merge two dedup domains, so it is drawn from
// the OS entropy pool, not the clock.
func randomEpoch() uint64 {
	var b [8]byte
	for {
		if _, err := crand.Read(b[:]); err != nil {
			// No entropy source; nanotime is the best fallback left.
			return uint64(time.Now().UnixNano()) | 1
		}
		if v := binary.LittleEndian.Uint64(b[:]); v != 0 {
			return v
		}
	}
}

// openWAL opens the spill log and rebuilds the pending batch from it:
// data records still unacknowledged at the last crash re-enter the
// buffer in order, under their original epoch and sequence numbers.
func (s *Sensor) openWAL() error {
	log, err := wal.Open(s.cfg.WALDir, wal.Options{SegmentBytes: s.cfg.WALSegmentBytes})
	if err != nil {
		return err
	}
	type pending struct {
		seq     uint64
		payload []byte
	}
	var pend []pending
	var lastAck uint64
	err = log.Replay(func(_ uint64, r wal.Record) error {
		switch r.Kind {
		case wal.KindData:
			if r.Seq > s.seq {
				s.seq = r.Seq
			}
			s.epoch = r.Epoch
			pend = append(pend, pending{seq: r.Seq, payload: append([]byte(nil), r.Payload...)})
		case wal.KindAck:
			if r.Seq > lastAck {
				lastAck = r.Seq
			}
			trimmed := pend[:0]
			for _, p := range pend {
				if p.seq > r.Seq {
					trimmed = append(trimmed, p)
				}
			}
			pend = trimmed
		}
		return nil
	})
	if err != nil {
		log.Close()
		return err
	}
	for _, p := range pend {
		s.buf = AppendSeqData(s.buf, p.seq, p.payload)
		s.offs = append(s.offs, frameOff{seq: p.seq, end: len(s.buf)})
	}
	s.acked.Store(lastAck)
	s.unacked.Store(uint64(len(s.offs)))
	s.recovered = uint64(len(pend))
	s.log = log
	return nil
}

// Stats returns a snapshot of the sensor's counters.
func (s *Sensor) Stats() SensorStats {
	return SensorStats{
		Connects:   s.m.connects.Value(),
		Reconnects: s.m.reconnects.Value(),
		Frames:     s.m.frames.Value(),
		Acked:      s.acked.Load(),
		Unacked:    s.unacked.Load(),
		Spilled:    s.spilled.Load(),
		Recovered:  s.recovered,
	}
}

// Write serializes one transaction into the pending batch (journaling
// it first when a WAL is configured) and flushes once FlushBytes of
// unsent frames accumulate. The transaction is copied immediately; the
// caller may reuse it.
func (s *Sensor) Write(tx *sie.Transaction) error {
	if s.closed {
		return ErrSensorClosed
	}
	if s.walErr != nil {
		return s.walErr
	}
	s.scratch = tx.Append(s.scratch[:0])
	if len(s.scratch) > MaxFramePayload-10 {
		return ErrFrameTooLarge
	}
	seq := s.seq + 1
	if s.log != nil {
		if _, err := s.log.Append(wal.Record{
			Kind: wal.KindData, Sensor: s.cfg.Name, Epoch: s.epoch, Seq: seq, Payload: s.scratch,
		}); err != nil {
			s.walErr = fmt.Errorf("transport: sensor %q: wal append: %w", s.cfg.Name, err)
			return s.walErr
		}
		s.spilled.Add(1)
	}
	s.seq = seq
	s.buf = AppendSeqData(s.buf, seq, s.scratch)
	s.offs = append(s.offs, frameOff{seq: seq, end: len(s.buf)})
	s.unacked.Store(uint64(len(s.offs)))
	if len(s.buf)-s.sent >= s.cfg.FlushBytes {
		return s.Flush()
	}
	return nil
}

// Flush writes the unsent frames to the collector, reconnecting with
// backoff as needed. On return with nil error every pending frame is
// on the wire (kernel-acknowledged); frames stay buffered until the
// collector acknowledges their sequence numbers.
func (s *Sensor) Flush() error {
	if s.closed {
		return ErrSensorClosed
	}
	if s.walErr != nil {
		return s.walErr
	}
	return s.flush()
}

func (s *Sensor) flush() error {
	for s.sent < len(s.buf) {
		if err := s.ensureConn(); err != nil {
			return err
		}
		if s.log != nil {
			// Write-ahead barrier: nothing goes on the wire before it is
			// on stable storage, so "sent" never outruns what a restart
			// can retransmit.
			if err := s.log.Sync(); err != nil {
				s.walErr = fmt.Errorf("transport: sensor %q: wal sync: %w", s.cfg.Name, err)
				return s.walErr
			}
		}
		s.conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		if _, err := s.conn.Write(s.buf[s.sent:]); err != nil {
			// Partial-frame safety: whatever prefix the dead connection
			// carried, the whole unacknowledged batch goes out again on
			// the next one and the collector discards the torn tail and
			// dedups the overlap.
			s.lastErr = err
			s.fails++
			s.dropConn()
			continue
		}
		s.m.frames.Add(uint64(len(s.offs) - s.sentFrames))
		s.sent = len(s.buf)
		s.sentFrames = len(s.offs)
		s.fails = 0
	}
	// Opportunistic acknowledgement sweep: free the batch buffer once
	// enough has piled up. The tiny deadline only ever stalls when the
	// collector has fallen behind on acks.
	if s.conn != nil && s.head < len(s.buf) && len(s.buf)-s.head >= 4*s.cfg.FlushBytes {
		s.sweepAcks(time.Now().Add(time.Millisecond))
	}
	return nil
}

// Close delivers the pending batch — flush, then wait for the
// collector to acknowledge every sequence number, retransmitting on
// silence — sends a Bye frame and closes the connection. The delivery
// error, if any, is returned: a sensor that could not confirm its tail
// must not report success.
func (s *Sensor) Close() error {
	if s.closed {
		return ErrSensorClosed
	}
	if s.walErr != nil {
		s.closed = true
		s.dropConn()
		if s.log != nil {
			s.log.Close()
		}
		return s.walErr
	}
	var err error
	for {
		if err = s.flush(); err != nil {
			break
		}
		if len(s.offs) == 0 {
			break // everything acknowledged
		}
		before := s.acked.Load()
		s.sweepAcks(time.Now().Add(s.cfg.AckTimeout))
		if s.conn == nil {
			continue // connection died mid-wait; flush retransmits
		}
		if s.acked.Load() == before {
			// A full window with no progress: the collector is gone or
			// wedged. Count it and retransmit on a fresh connection.
			s.lastErr = fmt.Errorf("transport: sensor %q: no acknowledgement in %v",
				s.cfg.Name, s.cfg.AckTimeout)
			s.fails++
			s.dropConn()
			if s.cfg.MaxAttempts > 0 && s.fails >= s.cfg.MaxAttempts {
				err = fmt.Errorf("transport: sensor %q: giving up after %d attempts: %w",
					s.cfg.Name, s.fails, s.lastErr)
				break
			}
		}
	}
	if err == nil && s.conn != nil {
		s.conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		s.conn.Write(AppendFrame(nil, FrameBye, nil)) // best-effort
	}
	s.closed = true
	s.dropConn()
	if s.log != nil {
		if cerr := s.log.Close(); err == nil && cerr != nil {
			err = cerr
		}
	}
	return err
}

// sweepAcks reads whatever acknowledgement frames the collector has
// sent, up to the deadline, and prunes the pending batch. A timeout is
// not an error; any other read failure drops the connection (the write
// path reconnects and retransmits).
func (s *Sensor) sweepAcks(deadline time.Time) {
	if s.conn == nil {
		return
	}
	if s.readBuf == nil {
		s.readBuf = make([]byte, 4096)
	}
	s.conn.SetReadDeadline(deadline)
	n, err := s.conn.Read(s.readBuf)
	if n > 0 {
		s.ackTail = append(s.ackTail, s.readBuf[:n]...)
		if !s.parseAcks() {
			s.lastErr = errors.New("transport: unexpected frame from collector")
			s.dropConn()
			return
		}
	}
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return
		}
		s.lastErr = err
		s.dropConn()
	}
}

// parseAcks consumes complete Ack frames from the accumulated
// collector->sensor stream, pruning the batch. It reports false on a
// protocol violation (any non-Ack frame).
func (s *Sensor) parseAcks() bool {
	b := s.ackTail
	used := 0
	for len(b) > 0 {
		if b[0] != FrameAck {
			return false
		}
		if len(b) < 2 {
			break
		}
		plen, n := binary.Uvarint(b[1:])
		if n < 0 {
			return false
		}
		if n == 0 || uint64(len(b)-1-n) < plen {
			break // incomplete frame; keep the tail for the next sweep
		}
		seq, err := ParseAck(b[1+n : 1+n+int(plen)])
		if err != nil {
			return false
		}
		s.prune(seq)
		b = b[1+n+int(plen):]
		used = len(s.ackTail) - len(b)
	}
	if used > 0 {
		s.ackTail = append(s.ackTail[:0], s.ackTail[used:]...)
	}
	return true
}

// prune drops every pending frame with seq <= ack from the batch,
// journaling the acknowledgement when a WAL is configured.
func (s *Sensor) prune(ack uint64) {
	if ack > s.seq {
		ack = s.seq // a bogus ack cannot run ahead of what was sent
	}
	if ack <= s.acked.Load() {
		return
	}
	s.acked.Store(ack)
	k := 0
	for k < len(s.offs) && s.offs[k].seq <= ack {
		k++
	}
	if s.log != nil {
		if _, err := s.log.Append(wal.Record{
			Kind: wal.KindAck, Sensor: s.cfg.Name, Epoch: s.epoch, Seq: ack,
		}); err != nil {
			s.walErr = fmt.Errorf("transport: sensor %q: wal append: %w", s.cfg.Name, err)
		}
	}
	if k == 0 {
		return
	}
	s.head = s.offs[k-1].end
	s.offs = append(s.offs[:0], s.offs[k:]...)
	s.sentFrames -= k
	if s.sentFrames < 0 {
		s.sentFrames = 0
	}
	if s.head >= len(s.buf) {
		// Fully acknowledged: recycle the buffer, and the spill log once
		// it has grown past a segment.
		s.buf = s.buf[:0]
		s.head, s.sent, s.sentFrames = 0, 0, 0
		s.offs = s.offs[:0]
		if s.log != nil && s.log.Size() >= int64(s.cfg.WALSegmentBytes) {
			if err := s.log.Reset(); err != nil {
				s.walErr = fmt.Errorf("transport: sensor %q: wal reset: %w", s.cfg.Name, err)
			}
		}
	} else if s.head >= 1<<16 && s.head > len(s.buf)/2 {
		// Compact: slide the live tail down so the buffer stops growing.
		n := copy(s.buf, s.buf[s.head:])
		s.buf = s.buf[:n]
		for i := range s.offs {
			s.offs[i].end -= s.head
		}
		s.sent -= s.head
		s.head = 0
	}
	s.unacked.Store(uint64(len(s.offs)))
}

// ensureConn establishes a connection (dial plus handshake) if none is
// live, applying jittered exponential backoff between attempts and
// honoring MaxAttempts.
func (s *Sensor) ensureConn() error {
	for s.conn == nil {
		if s.cfg.MaxAttempts > 0 && s.fails >= s.cfg.MaxAttempts {
			return fmt.Errorf("transport: sensor %q: giving up after %d attempts: %w",
				s.cfg.Name, s.fails, s.lastErr)
		}
		if s.fails > 0 {
			time.Sleep(s.backoff(s.fails))
		}
		conn, err := s.dial()
		if err != nil {
			s.lastErr = err
			s.fails++
			continue
		}
		conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		if _, err := conn.Write(s.hello); err != nil {
			s.lastErr = err
			s.fails++
			conn.Close()
			continue
		}
		s.conn = conn
		s.m.connects.Inc()
		if s.ever {
			s.m.reconnects.Inc()
		}
		s.ever = true
	}
	return nil
}

// dial opens one connection using the configured factory.
func (s *Sensor) dial() (net.Conn, error) {
	var conn net.Conn
	var err error
	if s.cfg.Dial != nil {
		conn, err = s.cfg.Dial()
	} else {
		network, address := SplitAddr(s.cfg.Addr)
		conn, err = net.DialTimeout(network, address, s.cfg.DialTimeout)
	}
	if err != nil {
		return nil, err
	}
	if s.cfg.WrapConn != nil {
		conn = s.cfg.WrapConn(conn)
	}
	return conn, nil
}

// dropConn closes and forgets the current connection. The next one
// starts with a retransmit of the whole unacknowledged batch, and any
// half-received ack frame from the dead connection is discarded.
func (s *Sensor) dropConn() {
	if s.conn != nil {
		s.conn.Close()
		s.conn = nil
	}
	s.sent = s.head
	s.sentFrames = 0
	s.ackTail = s.ackTail[:0]
}

// backoff returns the jittered exponential delay for the given
// consecutive-failure count: base·2^(n-1) capped at BackoffMax, then
// uniformly jittered over [½d, 1½d) so a fleet of sensors cut by one
// collector restart does not reconnect in lockstep.
func (s *Sensor) backoff(fails int) time.Duration {
	d := s.cfg.BackoffMin
	for i := 1; i < fails && d < s.cfg.BackoffMax; i++ {
		d *= 2
	}
	if d > s.cfg.BackoffMax {
		d = s.cfg.BackoffMax
	}
	return d/2 + time.Duration(s.rng.Int63n(int64(d)))
}

// removeStaleSocket unlinks a leftover Unix socket file so a restarted
// collector can bind again. Only sockets are removed.
func removeStaleSocket(path string) {
	if fi, err := os.Stat(path); err == nil && fi.Mode()&os.ModeSocket != 0 {
		os.Remove(path)
	}
}
