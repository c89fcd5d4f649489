package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"

	"dnsobservatory/internal/observatory"
	"dnsobservatory/internal/sie"
	"dnsobservatory/internal/tsv"
)

// capFactor is dnsobs's default -k: top-k capacities at a tenth of the
// paper's.
const capFactor = 0.1

// aggsNamed picks standard aggregations (at dnsobs's default capacity
// factor) by name, in the standard order.
func aggsNamed(names ...string) []observatory.Aggregation {
	var aggs []observatory.Aggregation
	for _, a := range observatory.StandardAggregations(capFactor) {
		for _, n := range names {
			if a.Name == n {
				aggs = append(aggs, a)
			}
		}
	}
	return aggs
}

func aggNamesOf(aggs []observatory.Aggregation, withDetect bool) []string {
	var names []string
	for _, a := range aggs {
		names = append(names, a.Name)
	}
	if withDetect {
		// Detection snapshots persist and cascade like any aggregation.
		names = append(names, "detect_esld", "detect_nod")
	}
	return names
}

// replayWorkload is `dnsobs -i file`: the framed stream through
// sie.Reader, the summarizer, one engine and one store, then cascade
// and retention. sharded selects `-sharded -detect -store columnar`.
type replayWorkload struct {
	p       *pool
	sharded bool
}

func (w *replayWorkload) ops() int { return len(w.p.txs) }

func (w *replayWorkload) backend() string {
	if w.sharded {
		return tsv.BackendColumnar
	}
	return tsv.BackendTSV
}

func (w *replayWorkload) round(rc *roundCtx) (*roundResult, error) {
	aggs := observatory.StandardAggregations(capFactor)
	snk, err := newSink(rc.storeDir, w.backend(), aggNamesOf(aggs, w.sharded), rc.tr)
	if err != nil {
		return nil, err
	}
	snk.putParent = rc.span
	var eng engine
	if w.sharded {
		eng = newShardedEngine(engineConfig(true), aggs, snk.onSnapshot)
	} else {
		eng = newSerialEngine(engineConfig(false), aggs, snk.onSnapshot)
	}
	in := newIngester(eng, snk, rc.tr)
	lastFull := int64(w.p.windows-2) * windowSec
	in.onCross = func(closed int64) {
		if rc.probeState && closed == lastFull {
			rc.stateMB = liveHeapMB() - rc.baselineMB
		}
		snk.mark(closed)
	}

	rd := sie.NewReader(bufio.NewReaderSize(bytes.NewReader(w.p.stream), 1<<20))
	var sa stageAllocs
	if rc.tr == nil {
		err = replayLoop(rd, in)
	} else {
		err = replayStaged(rd, in, rc, &sa)
	}
	if err != nil {
		eng.flush() // stop the sharded engine's goroutines
		return nil, err
	}
	in.flush(rc.span)
	if err := snk.finish(rc.span); err != nil {
		return nil, err
	}

	rr := &roundResult{ops: len(w.p.txs), lagMs: snk.lagMs, dumpMs: snk.dumpMs, stage: sa}
	rr.putTime, rr.rows, rr.windows = snk.putTotal, snk.store.RowsWritten(), snk.windows
	es := eng.stats()
	rr.rejected = es.Rejected
	if es.Ingested != es.Accepted+es.Rejected+es.Shed {
		rr.fault("EngineStats identity broken: %+v", es)
	}
	if es.Accepted != uint64(rr.ops) || rd.Count() != uint64(rr.ops) {
		rr.fault("engine accepted %d of %d transactions (read %d, rejected %d, shed %d)",
			es.Accepted, rr.ops, rd.Count(), es.Rejected, es.Shed)
		rr.failed += absDiff(uint64(rr.ops), es.Accepted)
	}
	if es.Panics != 0 || es.Quarantined != 0 {
		rr.fault("engine recovered %d panics, quarantined %d folds", es.Panics, es.Quarantined)
	}
	if snk.store.CorruptSkipped() != 0 {
		rr.fault("store skipped %d corrupt snapshots", snk.store.CorruptSkipped())
	}
	if w.p.windows >= 11 {
		// Eleven minutely windows must cascade into a decaminutely level.
		for _, name := range snk.aggNames {
			if starts, err := snk.store.List(name, tsv.Decaminutely); err != nil || len(starts) == 0 {
				rr.fault("no decaminutely level for %s after the cascade (err %v)", name, err)
			}
		}
	}
	return rr, nil
}

// replayLoop is dnsobs's main loop over a stream file.
func replayLoop(rd *sie.Reader, in *ingester) error {
	var tx sie.Transaction
	for {
		err := rd.Read(&tx)
		if err == io.EOF {
			return in.snk.failed()
		}
		if err != nil {
			var de *sie.DecodeError
			if errors.As(err, &de) {
				in.eng.reject()
				continue
			}
			return err
		}
		in.one(&tx)
		if err := in.snk.failed(); err != nil {
			return err
		}
	}
}

// replayStaged is the traced form of replayLoop: read a batch (copying
// the packets out of the reader's buffer, which the next Read reuses),
// summarize the batch, ingest the batch — one span per stage, so a
// layer's time is a span and not a subtraction of clock reads.
func replayStaged(rd *sie.Reader, in *ingester, rc *roundCtx, sa *stageAllocs) error {
	txs := make([]sie.Transaction, stageCap)
	batch := make([]*sie.Transaction, 0, stageCap)
	ok := make([]bool, stageCap)
	var arena []byte
	for eof := false; !eof; {
		bid := rc.tr.begin(rc.span, "batch")
		rid := rc.tr.begin(bid, "sie.read")
		batch, arena = batch[:0], arena[:0]
		for len(batch) < stageCap {
			tx := &txs[len(batch)]
			err := rd.Read(tx)
			if err == io.EOF {
				eof = true
				break
			}
			if err != nil {
				var de *sie.DecodeError
				if errors.As(err, &de) {
					in.eng.reject()
					continue
				}
				return err
			}
			q, r := len(arena), len(arena)+len(tx.QueryPacket)
			arena = append(append(arena, tx.QueryPacket...), tx.ResponsePacket...)
			tx.QueryPacket = arena[q:r:r]
			if len(tx.ResponsePacket) > 0 {
				tx.ResponsePacket = arena[r:len(arena):len(arena)]
			}
			batch = append(batch, tx)
		}
		rc.tr.end(rid, int64(len(batch)))
		in.staged(batch, bid, ok, sa)
		rc.tr.end(bid, int64(len(batch)))
		if err := in.snk.failed(); err != nil {
			return err
		}
	}
	return nil
}

// liveHeapMB forces a collection and returns the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func absDiff(a, b uint64) int64 {
	if a > b {
		return int64(a - b)
	}
	return int64(b - a)
}

func (rr *roundResult) fault(format string, args ...any) {
	rr.faults = append(rr.faults, fmt.Sprintf(format, args...))
}
