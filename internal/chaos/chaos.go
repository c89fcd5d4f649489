package chaos

import (
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"dnsobservatory/internal/ipwire"
	"dnsobservatory/internal/metrics"
	"dnsobservatory/internal/sie"
)

// Errors and panic values produced by injected faults.
var (
	// ErrInjectedWrite is returned by a wrapped writer in place of a
	// successful write.
	ErrInjectedWrite = errors.New("chaos: injected write failure")
	// ErrInjectedPanic is the value PanicHook panics with.
	ErrInjectedPanic = errors.New("chaos: injected worker panic")
	// ErrInjectedReset is returned by a wrapped connection whose write
	// was cut mid-frame (the connection is closed underneath).
	ErrInjectedReset = errors.New("chaos: injected connection reset")
	// ErrInjectedAckLoss is returned by a wrapped connection that
	// completed the write but reports failure — the network delivered
	// the bytes, the sender does not know it, and its retransmit after
	// reconnecting produces duplicates downstream.
	ErrInjectedAckLoss = errors.New("chaos: injected ack loss")
	// ErrInjectedLoss is returned by a wrapped exchanger whose reply was
	// dropped — the probe engine sees a timeout.
	ErrInjectedLoss = errors.New("chaos: injected reply loss")
)

// Config sets per-fault injection probabilities (0..1). The zero value
// injects nothing.
type Config struct {
	Seed int64

	// Stream faults, rolled once per transaction.
	CorruptRate   float64 // flip 1–4 random bytes of a packet
	TruncateRate  float64 // cut a packet short
	DuplicateRate float64 // emit the transaction twice
	ReorderRate   float64 // hold the transaction back 1–4 slots
	ZeroTimeRate  float64 // zero the query timestamp
	BackTimeRate  float64 // response timestamped before its query
	OversizeRate  float64 // query name over 255 wire octets

	// Engine fault, rolled once per PanicHook call.
	PanicRate float64

	// Store faults, rolled once per wrapped Write call.
	WriteErrRate   float64 // fail the write outright
	ShortWriteRate float64 // write only a prefix, report success

	// Network faults, applied by WrapConn-wrapped connections.
	ConnResetRate    float64 // per Write: deliver a prefix, close the conn, fail
	DupReconnectRate float64 // per Write: deliver everything, report failure ("lost ack")
	StalledReadRate  float64 // per Read: stall StallDuration before reading
	// StallDuration is how long a stalled read sleeps (default 100ms
	// when a stall fires with it unset).
	StallDuration time.Duration

	// Probe-path faults, applied by WrapExchanger-wrapped exchangers
	// (at most one per exchange, rolled in this order).
	ProbeLossRate     float64 // drop the reply: the engine times out and retries
	ProbeDelayRate    float64 // inflate the modeled rtt by ProbeDelay (late reply)
	ProbeServFailRate float64 // rewrite the reply into a SERVFAIL
	ProbeTruncateRate float64 // set TC on a UDP reply, forcing the TCP retry
	// ProbeDelay is the extra modeled delay a delayed reply carries
	// (default 2s when a delay fires with it unset) — set it above the
	// probe engine's timeout to turn delays into retries.
	ProbeDelay time.Duration
}

// Uniform returns a Config injecting every stream fault at the given
// rate. Engine and store faults stay off; enable them explicitly.
func Uniform(rate float64, seed int64) Config {
	return Config{
		Seed:          seed,
		CorruptRate:   rate,
		TruncateRate:  rate,
		DuplicateRate: rate,
		ReorderRate:   rate,
		ZeroTimeRate:  rate,
		BackTimeRate:  rate,
		OversizeRate:  rate,
	}
}

// Stats counts injected faults by kind.
type Stats struct {
	Corrupted   uint64
	Truncated   uint64
	Duplicated  uint64
	Reordered   uint64
	ZeroTime    uint64
	BackTime    uint64
	Oversized   uint64
	Panics      uint64
	WriteErrs   uint64
	ShortWrites uint64
	ConnResets  uint64
	DupWrites   uint64
	StalledRds  uint64

	ProbeLost      uint64
	ProbeDelayed   uint64
	ProbeServFails uint64
	ProbeTruncated uint64
}

// Total returns the number of injected faults across all kinds.
func (s Stats) Total() uint64 {
	return s.Corrupted + s.Truncated + s.Duplicated + s.Reordered +
		s.ZeroTime + s.BackTime + s.Oversized + s.Panics +
		s.WriteErrs + s.ShortWrites +
		s.ConnResets + s.DupWrites + s.StalledRds +
		s.ProbeLost + s.ProbeDelayed + s.ProbeServFails + s.ProbeTruncated
}

// heldTx is a reordered transaction waiting out its delay.
type heldTx struct {
	tx    *sie.Transaction
	delay int // emitted when it reaches 0
}

// Injector applies a Config's faults. Safe for concurrent use: stream,
// engine and store hooks may fire from different goroutines.
type Injector struct {
	cfg Config

	mu    sync.Mutex
	rng   *rand.Rand
	stats Stats
	held  []heldTx
	emit  func(*sie.Transaction)
}

// New returns an injector for cfg.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Stats returns a snapshot of the fault counters.
func (inj *Injector) Stats() Stats {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.stats
}

// Instrument registers one dnsobs_chaos_injected_total{kind=...} counter
// per fault kind with reg, read through Stats at collect time — the
// injection hot paths gain no extra work. Re-instrumenting (a fresh
// injector per soak run) replaces the previous injector's slots.
func (inj *Injector) Instrument(reg *metrics.Registry) {
	kinds := []struct {
		kind string
		read func(Stats) uint64
	}{
		{"corrupted", func(s Stats) uint64 { return s.Corrupted }},
		{"truncated", func(s Stats) uint64 { return s.Truncated }},
		{"duplicated", func(s Stats) uint64 { return s.Duplicated }},
		{"reordered", func(s Stats) uint64 { return s.Reordered }},
		{"zero_time", func(s Stats) uint64 { return s.ZeroTime }},
		{"back_time", func(s Stats) uint64 { return s.BackTime }},
		{"oversized", func(s Stats) uint64 { return s.Oversized }},
		{"panics", func(s Stats) uint64 { return s.Panics }},
		{"write_errs", func(s Stats) uint64 { return s.WriteErrs }},
		{"short_writes", func(s Stats) uint64 { return s.ShortWrites }},
		{"conn_resets", func(s Stats) uint64 { return s.ConnResets }},
		{"dup_writes", func(s Stats) uint64 { return s.DupWrites }},
		{"stalled_reads", func(s Stats) uint64 { return s.StalledRds }},
		{"probe_lost", func(s Stats) uint64 { return s.ProbeLost }},
		{"probe_delayed", func(s Stats) uint64 { return s.ProbeDelayed }},
		{"probe_servfails", func(s Stats) uint64 { return s.ProbeServFails }},
		{"probe_truncated", func(s Stats) uint64 { return s.ProbeTruncated }},
	}
	for _, k := range kinds {
		read := k.read
		reg.CounterFunc("dnsobs_chaos_injected_total", "chaos faults injected by kind",
			func() uint64 { return read(inj.Stats()) }, "kind", k.kind)
	}
}

// roll returns true with probability rate. Caller holds inj.mu.
func (inj *Injector) roll(rate float64) bool {
	return rate > 0 && inj.rng.Float64() < rate
}

// Transactions wraps emit with the stream faults. The wrapper is the
// new producer callback; call Flush after the stream ends to release
// transactions still held by the reorder buffer.
func (inj *Injector) Transactions(emit func(*sie.Transaction)) func(*sie.Transaction) {
	inj.mu.Lock()
	inj.emit = emit
	inj.mu.Unlock()
	return func(tx *sie.Transaction) { inj.feed(tx) }
}

// Flush emits every transaction still waiting in the reorder buffer.
func (inj *Injector) Flush() {
	inj.mu.Lock()
	due := make([]*sie.Transaction, 0, len(inj.held))
	for _, h := range inj.held {
		due = append(due, h.tx)
	}
	inj.held = inj.held[:0]
	emit := inj.emit
	inj.mu.Unlock()
	for _, tx := range due {
		emit(tx)
	}
}

// feed applies stream faults to one transaction and forwards the
// results (possibly zero, one, or several transactions) to emit.
func (inj *Injector) feed(tx *sie.Transaction) {
	inj.mu.Lock()
	cp := tx
	if inj.roll(inj.cfg.OversizeRate) {
		cp = inj.oversize(cp)
	}
	if inj.roll(inj.cfg.CorruptRate) {
		cp = inj.corrupt(cp)
	}
	if inj.roll(inj.cfg.TruncateRate) {
		cp = inj.truncate(cp)
	}
	if inj.roll(inj.cfg.ZeroTimeRate) {
		cp = clone(cp)
		cp.QueryTime = time.Time{}
		inj.stats.ZeroTime++
	}
	if inj.roll(inj.cfg.BackTimeRate) && cp.Answered() {
		cp = clone(cp)
		cp.ResponseTime = cp.QueryTime.Add(-time.Duration(1+inj.rng.Intn(5000)) * time.Millisecond)
		inj.stats.BackTime++
	}

	var out []*sie.Transaction
	if inj.roll(inj.cfg.ReorderRate) {
		inj.held = append(inj.held, heldTx{tx: clone(cp), delay: 1 + inj.rng.Intn(4)})
		inj.stats.Reordered++
	} else {
		out = append(out, cp)
		if inj.roll(inj.cfg.DuplicateRate) {
			out = append(out, clone(cp))
			inj.stats.Duplicated++
		}
	}
	// Age the reorder buffer and release whatever came due.
	kept := inj.held[:0]
	for _, h := range inj.held {
		h.delay--
		if h.delay <= 0 {
			out = append(out, h.tx)
		} else {
			kept = append(kept, h)
		}
	}
	inj.held = kept
	emit := inj.emit
	inj.mu.Unlock()

	for _, t := range out {
		emit(t)
	}
}

// clone deep-copies a transaction so mutations and held references
// never alias the producer's reusable buffers.
func clone(tx *sie.Transaction) *sie.Transaction {
	cp := *tx
	cp.QueryPacket = append([]byte(nil), tx.QueryPacket...)
	if tx.ResponsePacket != nil {
		cp.ResponsePacket = append([]byte(nil), tx.ResponsePacket...)
	}
	return &cp
}

// corrupt flips 1–4 random bytes in one of the transaction's packets.
// Caller holds inj.mu.
func (inj *Injector) corrupt(tx *sie.Transaction) *sie.Transaction {
	cp := clone(tx)
	pkt := cp.QueryPacket
	if cp.Answered() && inj.rng.Intn(2) == 1 {
		pkt = cp.ResponsePacket
	}
	if len(pkt) == 0 {
		return cp
	}
	for i := 0; i < 1+inj.rng.Intn(4); i++ {
		pkt[inj.rng.Intn(len(pkt))] ^= byte(1 + inj.rng.Intn(255))
	}
	inj.stats.Corrupted++
	return cp
}

// truncate cuts one of the transaction's packets short. Caller holds
// inj.mu.
func (inj *Injector) truncate(tx *sie.Transaction) *sie.Transaction {
	cp := clone(tx)
	if cp.Answered() && inj.rng.Intn(2) == 1 {
		if len(cp.ResponsePacket) > 1 {
			cp.ResponsePacket = cp.ResponsePacket[:inj.rng.Intn(len(cp.ResponsePacket))]
		}
	} else if len(cp.QueryPacket) > 1 {
		cp.QueryPacket = cp.QueryPacket[:inj.rng.Intn(len(cp.QueryPacket))]
	}
	inj.stats.Truncated++
	return cp
}

// oversize replaces the query with one whose QNAME exceeds the 255-octet
// wire limit (six 60-byte labels) — the codec must reject it with a
// typed error before it reaches feature extraction. Caller holds inj.mu.
func (inj *Injector) oversize(tx *sie.Transaction) *sie.Transaction {
	pkt, _, err := ipwire.DecodeAny(tx.QueryPacket)
	if err != nil {
		return tx // already mangled beyond recognition; leave it
	}
	id := uint16(inj.rng.Intn(1 << 16))
	payload := make([]byte, 0, 400)
	payload = append(payload, byte(id>>8), byte(id), 0x01, 0x00, 0, 1, 0, 0, 0, 0, 0, 0)
	for l := 0; l < 6; l++ {
		payload = append(payload, 60)
		for j := 0; j < 60; j++ {
			payload = append(payload, byte('a'+inj.rng.Intn(26)))
		}
	}
	payload = append(payload, 0, 0, 1, 0, 1) // root, A, IN
	cp := clone(tx)
	if pkt.Src.Is4() && pkt.Dst.Is4() {
		cp.QueryPacket = ipwire.AppendIPv4UDP(nil, pkt.Src, pkt.Dst, pkt.SrcPort, pkt.DstPort, 64, payload)
	} else {
		cp.QueryPacket = ipwire.AppendIPv6UDP(nil, pkt.Src, pkt.Dst, pkt.SrcPort, pkt.DstPort, 64, payload)
	}
	inj.stats.Oversized++
	return cp
}

// PanicHook panics with ErrInjectedPanic at the configured rate. Install
// it as observatory.Config.ChaosHook to exercise the engines' panic
// supervision; sum is ignored.
func (inj *Injector) PanicHook(_ *sie.Summary) {
	inj.mu.Lock()
	fire := inj.roll(inj.cfg.PanicRate)
	if fire {
		inj.stats.Panics++
	}
	inj.mu.Unlock()
	if fire {
		panic(ErrInjectedPanic)
	}
}

// WrapWriter wraps w with the store faults: writes fail outright or
// complete short at the configured rates. Install it as
// tsv.Store.WrapWriter.
func (inj *Injector) WrapWriter(w io.Writer) io.Writer {
	return &faultWriter{inj: inj, w: w}
}

type faultWriter struct {
	inj *Injector
	w   io.Writer
}

// Write rolls the store faults before delegating. A short write reports
// success for a prefix — exactly what a crashed or full disk produces —
// which the snapshot writer surfaces as io.ErrShortWrite.
func (fw *faultWriter) Write(p []byte) (int, error) {
	fw.inj.mu.Lock()
	fail := fw.inj.roll(fw.inj.cfg.WriteErrRate)
	short := !fail && len(p) > 1 && fw.inj.roll(fw.inj.cfg.ShortWriteRate)
	var n int
	if fail {
		fw.inj.stats.WriteErrs++
	}
	if short {
		fw.inj.stats.ShortWrites++
		n = 1 + fw.inj.rng.Intn(len(p)-1)
	}
	fw.inj.mu.Unlock()
	if fail {
		return 0, ErrInjectedWrite
	}
	if short {
		if _, err := fw.w.Write(p[:n]); err != nil {
			return 0, err
		}
		return n, nil
	}
	return fw.w.Write(p)
}

// WrapConn wraps a network connection with the network faults: writes
// reset mid-frame or lose their acknowledgement, reads stall. Install
// it as transport.SensorConfig.WrapConn (sender-side faults) or
// transport.CollectorConfig.WrapConn (stalled reads on the receiver).
func (inj *Injector) WrapConn(c net.Conn) net.Conn {
	return &faultConn{Conn: c, inj: inj}
}

type faultConn struct {
	net.Conn
	inj *Injector
}

// Write rolls the network write faults before delegating. A reset
// delivers a prefix — cutting the stream mid-frame — then closes the
// connection; an ack loss delivers everything and lies about it.
func (fc *faultConn) Write(p []byte) (int, error) {
	fc.inj.mu.Lock()
	reset := fc.inj.roll(fc.inj.cfg.ConnResetRate)
	dup := !reset && fc.inj.roll(fc.inj.cfg.DupReconnectRate)
	var n int
	if reset {
		fc.inj.stats.ConnResets++
		n = fc.inj.rng.Intn(len(p) + 1)
	}
	if dup {
		fc.inj.stats.DupWrites++
	}
	fc.inj.mu.Unlock()
	if reset {
		if n > 0 {
			fc.Conn.Write(p[:n])
		}
		fc.Conn.Close()
		return 0, ErrInjectedReset
	}
	if dup {
		if _, err := fc.Conn.Write(p); err != nil {
			return 0, err
		}
		return 0, ErrInjectedAckLoss
	}
	return fc.Conn.Write(p)
}

// Read rolls the stalled-reader fault, sleeping outside the injector
// lock so concurrent connections never serialize on a stall. A read
// deadline set on the connection still applies to the delegated Read,
// so a receiver with a timeout cuts the stalled connection — exactly
// the slow-sensor behaviour the fault exists to exercise.
func (fc *faultConn) Read(p []byte) (int, error) {
	fc.inj.mu.Lock()
	stall := fc.inj.roll(fc.inj.cfg.StalledReadRate)
	d := fc.inj.cfg.StallDuration
	if stall {
		fc.inj.stats.StalledRds++
	}
	fc.inj.mu.Unlock()
	if stall {
		if d <= 0 {
			d = 100 * time.Millisecond
		}
		time.Sleep(d)
	}
	return fc.Conn.Read(p)
}
