package main

import (
	"fmt"
	"net"
	"path/filepath"
	"sync/atomic"
	"time"

	"dnsobservatory/internal/observatory"
	"dnsobservatory/internal/sie"
	"dnsobservatory/internal/transport"
	"dnsobservatory/internal/tsv"
	"dnsobservatory/internal/wal"
)

// netCounters are the transport-side tallies of one net-durable round.
type netCounters struct {
	coll         transport.CollectorStats
	sensor       transport.SensorStats
	walBytes     int64
	walSegments  int
	writeCalls   uint64 // sensor-side conn.Write calls (traced rounds)
	writeBytes   uint64
	readCalls    uint64 // collector-side conn.Read calls (traced rounds)
	consumerWait time.Duration
	consumerWork time.Duration
	sensorWrite  time.Duration
}

// netWorkload is `dnsgen -connect` into `dnsobs -listen -wal` on one
// loopback TCP connection: one sensor, a collector journaling to a WAL,
// the serial engine cut down to the two tiny aggregations so that sie,
// transport and wal are nearly all of the CPU.
type netWorkload struct {
	p    *pool
	aggs []observatory.Aggregation
	// reference is the store digest of a direct serial run over the same
	// stream with the same aggregations: the transport must be invisible.
	reference string
}

func newNetWorkload(p *pool, scratch string) (*netWorkload, error) {
	w := &netWorkload{p: p, aggs: aggsNamed("qtype", "rcode")}
	// The reference is the checker's, not the system's: it is not part of
	// setup_s.
	dir := filepath.Join(scratch, "net-reference")
	snk, err := newSink(dir, tsv.BackendTSV, aggNamesOf(w.aggs, false), nil)
	if err != nil {
		return nil, err
	}
	in := newIngester(newSerialEngine(engineConfig(false), w.aggs, snk.onSnapshot), snk, nil)
	for i := range p.txs {
		in.one(&p.txs[i])
	}
	in.flush(0)
	if err := snk.finish(0); err != nil {
		return nil, fmt.Errorf("net reference: %w", err)
	}
	if w.reference, _, err = dirDigest(dir); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *netWorkload) ops() int { return len(w.p.txs) }

// drainTimeout bounds the wait for the consumer to count the last
// transaction once the sensor is done; rounds take about a second.
const drainTimeout = 60 * time.Second

// Paced rounds: the sensor goroutine sleeps to its schedule once every
// paceChunk transactions, and every lagStride-th transaction gives one
// delivery-lag sample.
const (
	paceChunk = 32
	lagStride = 256
)

// connCounts tallies the calls and bytes crossing one end of the
// connection; the traced rounds install a countingConn through the
// WrapConn hooks.
type connCounts struct {
	reads, writes, written atomic.Uint64
}

type countingConn struct {
	net.Conn
	c *connCounts
}

func (c countingConn) Read(b []byte) (int, error) {
	c.c.reads.Add(1)
	return c.Conn.Read(b)
}

func (c countingConn) Write(b []byte) (int, error) {
	c.c.writes.Add(1)
	n, err := c.Conn.Write(b)
	c.c.written.Add(uint64(n))
	return n, err
}

func (w *netWorkload) round(rc *roundCtx) (*roundResult, error) {
	n := len(w.p.txs)
	rr := &roundResult{ops: n}

	snk, err := newSink(rc.storeDir, tsv.BackendTSV, aggNamesOf(w.aggs, false), rc.tr)
	if err != nil {
		return nil, err
	}
	snk.putParent = rc.span
	eng := newSerialEngine(engineConfig(false), w.aggs, snk.onSnapshot)
	in := newIngester(eng, snk, rc.tr)

	ln, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var sensorSide, collectorSide connCounts
	ccfg := transport.CollectorConfig{OnReject: func(error) { eng.reject() }}
	scfg := transport.SensorConfig{Addr: ln.Addr().String(), Name: "dnsbench"}
	if rc.tr != nil {
		ccfg.WrapConn = func(c net.Conn) net.Conn { return countingConn{c, &collectorSide} }
		scfg.WrapConn = func(c net.Conn) net.Conn { return countingConn{c, &sensorSide} }
	}
	coll := transport.NewCollector(ccfg)
	if err := coll.OpenWAL(filepath.Join(rc.dir, "wal"), wal.Options{}); err != nil {
		ln.Close()
		return nil, err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- coll.Serve(ln) }()

	// dnsobs checkpoints the journal after each snapshot lands: all but
	// the transaction being read are durably applied.
	var consumed atomic.Uint64
	var ckptErr error
	snk.afterPut = func() {
		if c := consumed.Load(); c > 0 && ckptErr == nil {
			ckptErr = coll.Checkpoint(c - 1)
		}
	}

	// The sensor: one goroutine, one connection. In a closed-loop round
	// it writes as fast as the collector journals and acknowledges. In a
	// paced round it is an open loop: transaction i is due i/paceRate into
	// the round, whatever the system does, and its delivery lag runs from
	// that instant, so a stall is charged to everything queued behind it.
	roundStart := time.Now()
	due := func(i int) time.Duration { return time.Duration(float64(i) / paceRate * float64(time.Second)) }
	sensorDone := make(chan error, 1)
	var sensorStats transport.SensorStats
	var sensorWriteTime time.Duration
	var lateMs []float64
	go func() {
		s := transport.NewSensor(scfg)
		var err error
		for lo := 0; lo < n && err == nil; lo += stageCap {
			hi := min(lo+stageCap, n)
			id := rc.tr.begin(rc.span, "transport.sensor_write")
			start := time.Now()
			for i := lo; i < hi && err == nil; i++ {
				if rc.paced && i%paceChunk == 0 {
					if d := due(i) - time.Since(roundStart); d > 0 {
						time.Sleep(d)
					}
					if i%lagStride == 0 {
						lateMs = append(lateMs, ms(time.Since(roundStart)-due(i)))
					}
				}
				err = s.Write(&w.p.txs[i])
			}
			sensorWriteTime += time.Since(start)
			rc.tr.end(id, int64(hi-lo))
		}
		// Close returns once every frame is acknowledged, i.e. journaled.
		if cerr := s.Close(); err == nil {
			err = cerr
		}
		sensorStats = s.Stats()
		sensorDone <- err
	}()

	// Drain order: the collector with a WAL spills instead of applying
	// back-pressure, so "sensor done" says nothing about the consumer.
	// The collector may close only when the sensor's Close has returned
	// (or it would redial a dead listener) AND the consumer has counted
	// every transaction (or the spilled tail stays in the journal).
	var sensorErr error
	drained := make(chan struct{}) // closed by the consumer at transaction n
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		sensorErr = <-sensorDone
		if rc.fault != faultPrematureClose {
			select {
			case <-drained:
			case <-time.After(drainTimeout): // lost transactions: report, do not hang
			}
		}
		coll.Close()
	}()
	if rc.fault == faultPrematureClose {
		<-closed // the consumer starts only after the early close
	}

	// The consumer is dnsobs's main loop over collectorSource. In a paced
	// round every lagStride-th transaction is a latency sample: from when
	// it was due at the sensor to when the engine has applied it, the
	// snapshots it published and their checkpoint included.
	var sa stageAllocs
	var waitTime, workTime time.Duration
	var lagMs []float64
	if rc.tr == nil {
		for rx := range coll.C() {
			c := consumed.Add(1)
			if c == uint64(n) {
				close(drained)
			}
			in.one(rx)
			if i := int(c - 1); rc.paced && i%lagStride == 0 {
				lagMs = append(lagMs, ms(time.Since(roundStart)-due(i)))
			}
			if snk.failed() != nil {
				break
			}
		}
	} else {
		batch := make([]*sie.Transaction, 0, stageCap)
		ok := make([]bool, stageCap)
		received := 0
		take := func(rx *sie.Transaction) {
			batch = append(batch, rx)
			if received++; received == n {
				close(drained) // or the short last batch would wait forever
			}
		}
		for open := true; open; {
			// Block until a worthwhile batch has arrived (the wait), top
			// it up with whatever else is queued, then process it (the
			// work): spans per batch, not per transaction.
			wid := rc.tr.begin(rc.span, "consumer.wait")
			start := time.Now()
			batch = batch[:0]
			for open && len(batch) < stageCap/64 {
				rx, more := <-coll.C()
				if open = more; more {
					take(rx)
				}
			}
		fill:
			for open && len(batch) < stageCap {
				select {
				case rx, more := <-coll.C():
					if open = more; more {
						take(rx)
					}
				default:
					break fill
				}
			}
			waitTime += time.Since(start)
			rc.tr.end(wid, int64(len(batch)))
			if len(batch) == 0 {
				break
			}
			kid := rc.tr.begin(rc.span, "consumer.work")
			start = time.Now()
			consumed.Add(uint64(len(batch)))
			in.staged(batch, kid, ok, &sa)
			workTime += time.Since(start)
			rc.tr.end(kid, int64(len(batch)))
			if snk.failed() != nil {
				break
			}
		}
	}
	<-closed
	for range coll.C() { // a failed sink left the channel undrained
	}
	if err := <-serveErr; err != nil {
		return nil, fmt.Errorf("collector serve: %w", err)
	}
	in.flush(rc.span)
	if err := snk.finish(rc.span); err != nil {
		return nil, err
	}
	// The final checkpoint and the journal close, as dnsobs's finalize.
	if err := coll.Checkpoint(consumed.Load()); err != nil {
		return nil, fmt.Errorf("final checkpoint: %w", err)
	}
	ws, _ := coll.WALStatus()
	if err := coll.CloseWAL(); err != nil {
		return nil, fmt.Errorf("close wal: %w", err)
	}
	if ckptErr != nil {
		return nil, fmt.Errorf("checkpoint: %w", ckptErr)
	}
	if sensorErr != nil {
		rr.fault("sensor: %v", sensorErr)
	}

	rr.lagMs, rr.lateMs, rr.stage = lagMs, lateMs, sa
	rr.putTime, rr.rows, rr.windows = snk.putTotal, snk.store.RowsWritten(), snk.windows
	cs := coll.Stats()
	rr.net = netCounters{coll: cs, sensor: sensorStats, walBytes: ws.SizeBytes, walSegments: ws.Segments,
		writeCalls: sensorSide.writes.Load(), writeBytes: sensorSide.written.Load(), readCalls: collectorSide.reads.Load(),
		consumerWait: waitTime, consumerWork: workTime, sensorWrite: sensorWriteTime}

	es := eng.stats()
	rr.rejected = es.Rejected
	got := consumed.Load()
	if got != uint64(n) || es.Accepted != uint64(n) {
		rr.fault("delivered %d and accepted %d of %d transactions", got, es.Accepted, n)
		rr.failed += max(absDiff(uint64(n), got), absDiff(uint64(n), es.Accepted))
	}
	if es.Ingested != es.Accepted+es.Rejected+es.Shed {
		rr.fault("EngineStats identity broken: %+v", es)
	}
	if cs.Frames+cs.Replayed != cs.Deduped+cs.DecodeErrors+cs.Shed+cs.Enqueued+cs.Spilled {
		rr.fault("CollectorStats identity broken: %+v", cs)
	}
	if cs.Deduped != 0 || cs.Shed != 0 || cs.DecodeErrors != 0 {
		rr.fault("collector deduped %d, shed %d, failed to decode %d", cs.Deduped, cs.Shed, cs.DecodeErrors)
		rr.failed += int64(cs.Deduped + cs.Shed + cs.DecodeErrors)
	}
	if sensorStats.Acked != uint64(n) && sensorErr == nil {
		rr.fault("sensor saw %d of %d acknowledged", sensorStats.Acked, n)
	}
	return rr, nil
}
