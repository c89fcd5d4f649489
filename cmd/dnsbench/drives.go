package main

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"dnsobservatory/internal/detect"
	"dnsobservatory/internal/dnswire"
	"dnsobservatory/internal/features"
	"dnsobservatory/internal/hll"
	"dnsobservatory/internal/ipwire"
	"dnsobservatory/internal/observatory"
	"dnsobservatory/internal/sie"
	"dnsobservatory/internal/spacesaving"
	"dnsobservatory/internal/transport"
	"dnsobservatory/internal/tsv"
	"dnsobservatory/internal/wal"
)

// isolatedDrives times single layers on the pool's own data, outside
// any workload: each drive feeds one layer the first cfg.driveN items
// it would see in replay-serial, and reports time per item. They depend
// on the pool only, so every workload's traced run reports the same
// drives.
func isolatedDrives(cfg config, p *pool, scratch string) (map[string]float64, error) {
	n := min(cfg.driveN, len(p.txs))
	txs := p.txs[:n]
	out := map[string]float64{}
	perItem := func(d time.Duration, items int) float64 {
		if items == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(items)
	}

	// dnswire: unpack every response message of the slice.
	var payloads [][]byte
	for i := range txs {
		if !txs[i].Answered() {
			continue
		}
		if pkt, _, err := ipwire.DecodeAny(txs[i].ResponsePacket); err == nil {
			payloads = append(payloads, pkt.Payload)
		}
	}
	var msg dnswire.Message
	start := time.Now()
	for _, b := range payloads {
		if err := msg.Unpack(b); err != nil {
			return nil, fmt.Errorf("dnswire drive: %w", err)
		}
	}
	out["dnswire.unpack_ns_per_msg"] = perItem(time.Since(start), len(payloads))

	// Summaries for the engine-side drives: one value per transaction,
	// hashes precomputed as the engines would have them.
	sums := make([]sie.Summary, n)
	var sm sie.Summarizer
	sm.KeepUnparsableResponses = true
	for i := range txs {
		if err := sm.Summarize(&txs[i], &sums[i]); err != nil {
			return nil, fmt.Errorf("summarize drive input: %w", err)
		}
		sums[i].PrecomputeHashes(nil)
	}

	// spacesaving: the qname stream into a cache of the qname
	// aggregation's capacity, no admitter, so every miss on a full cache
	// evicts.
	cache := spacesaving.New(aggsNamed("qname")[0].K, windowSec, nil)
	start = time.Now()
	for i := range sums {
		cache.Observe(sums[i].QName, p.nows[i])
	}
	out["spacesaving.observe_ns_per_key"] = perItem(time.Since(start), n)
	out["spacesaving.evictions_per_kkey"] = float64(cache.Evictions()) * 1000 / float64(n)

	// features: every summary folded into one feature set.
	set := features.NewSet(features.DefaultConfig())
	start = time.Now()
	for i := range sums {
		set.Observe(&sums[i])
	}
	out["features.observe_ns_per_tx"] = perItem(time.Since(start), n)

	// hll: the memoized qname hashes into one sketch at the feature
	// sets' precision.
	sk := hll.MustNew(uint8(features.DefaultConfig().HLLPrecision))
	start = time.Now()
	for i := range sums {
		sk.AddHash(sums[i].QNameHash)
	}
	out["hll.add_ns_per_hash"] = perItem(time.Since(start), n)

	// detect: the serial Observe path of the detection layer.
	det := detect.New(detect.DefaultConfig())
	start = time.Now()
	for i := range sums {
		det.Observe(&sums[i], p.nows[i])
	}
	out["detect.observe_ns_per_tx"] = perItem(time.Since(start), n)

	// observatory with one tiny aggregation: the fixed per-transaction
	// cost of Ingest (hash precompute included, so from fresh summaries).
	pipe := observatory.New(engineConfig(false), aggsNamed("qtype"), func(*tsv.Snapshot) {})
	for i := range sums {
		sums[i].HashesReady = false
	}
	start = time.Now()
	for i := range sums {
		pipe.Ingest(&sums[i], p.nows[i])
	}
	out["observatory.ingest_1agg_ns_per_tx"] = perItem(time.Since(start), n)

	// transport framing over memory: AppendSeqData, then FrameReader and
	// ParseSeqData back.
	var wire, body []byte
	start = time.Now()
	for i := range txs {
		body = txs[i].Append(body[:0])
		wire = transport.AppendSeqData(wire, uint64(i+1), body)
	}
	fr := transport.NewFrameReader(bytes.NewReader(wire))
	frames := 0
	for {
		_, payload, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err == nil {
			_, _, err = transport.ParseSeqData(payload)
		}
		if err != nil {
			return nil, fmt.Errorf("frame drive: %w", err)
		}
		frames++
	}
	if frames != n {
		return nil, fmt.Errorf("frame drive: %d frames back from %d", frames, n)
	}
	out["transport.frame_ns_per_tx"] = perItem(time.Since(start), n)

	// wal: append the slice as the collector journals it, sync, replay.
	log, err := wal.Open(filepath.Join(scratch, "drive-wal"), wal.Options{})
	if err != nil {
		return nil, err
	}
	start = time.Now()
	for i := range txs {
		body = txs[i].Append(body[:0])
		if _, err := log.Append(wal.Record{Kind: wal.KindData, Sensor: "dnsbench", Epoch: 1, Seq: uint64(i + 1), Payload: body}); err != nil {
			log.Close()
			return nil, fmt.Errorf("wal drive: %w", err)
		}
	}
	if err := log.Sync(); err != nil {
		log.Close()
		return nil, fmt.Errorf("wal drive: %w", err)
	}
	out["wal.append_ns_per_rec"] = perItem(time.Since(start), n)
	out["wal.bytes_per_tx"] = float64(log.Size()) / float64(n)
	out["wal.segments"] = float64(log.Segments())
	replayed := 0
	start = time.Now()
	err = log.Replay(func(uint64, wal.Record) error { replayed++; return nil })
	out["wal.replay_ns_per_rec"] = perItem(time.Since(start), replayed)
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	if err == nil && replayed != n {
		err = fmt.Errorf("%d records back from %d", replayed, n)
	}
	if err != nil {
		return nil, fmt.Errorf("wal drive: %w", err)
	}
	return out, nil
}
