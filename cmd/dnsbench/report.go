package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output: the end-to-end metrics
// of an untraced run, or the per-layer metrics of a traced one.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// detail is the machine-readable context printed before the result
// line: what the box was, and the per-round values the estimators saw.
type detail struct {
	Workload     string    `json:"workload"`
	Seed         int64     `json:"seed"`
	Seconds      float64   `json:"seconds"`
	Trace        bool      `json:"trace"`
	NProc        int       `json:"nproc"`
	GOMAXPROCS   int       `json:"gomaxprocs"`
	GoVersion    string    `json:"go_version"`
	OpsPerRound  int       `json:"ops_per_round"`
	Windows      int       `json:"pool_windows"`
	Rounds       int       `json:"rounds"`
	TracedRounds int       `json:"traced_rounds,omitempty"`
	PacedRounds  int       `json:"paced_rounds,omitempty"`
	PaceRate     float64   `json:"pace_tx_per_s,omitempty"`
	PacedWallS   []float64 `json:"paced_wall_s,omitempty"`
	PacerLateMs  float64   `json:"pacer_late_ms_p90,omitempty"`
	RoundWallS   []float64 `json:"round_wall_s"`
	RoundCPUS    []float64 `json:"round_cpu_s"`
	TracedWallS  []float64 `json:"traced_wall_s,omitempty"`
	SetupS       []float64 `json:"setup_s"`
	SetupExtraS  float64   `json:"setup_extra_s"`
	CalibMs      []float64 `json:"calib_ms"`
	LatencyN     int       `json:"latency_samples"`
	LatencyMsP90 float64   `json:"latency_ms_p90"`
	StoreDigest  string    `json:"store_digest"`
	// SelfCoverage is, for a traced replay-serial run, the share of the
	// traced rounds' wall time that the per-layer self times add up to.
	SelfCoverage float64  `json:"trace_self_coverage,omitempty"`
	TraceFile    string   `json:"trace_file,omitempty"`
	Faults       []string `json:"faults,omitempty"`
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("dnsbench: metric " + name + " is not in the table")
}

// summarize turns a report into the result line and its detail.
func (rep *report) summarize() (*result, *detail, error) {
	res := &result{Metrics: map[string]metricValue{}}
	det := &detail{
		Workload: rep.cfg.workload, Seed: rep.cfg.seed, Seconds: rep.cfg.seconds, Trace: rep.cfg.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		OpsPerRound: rep.ops, Windows: rep.pool.windows, Rounds: len(rep.rounds), TracedRounds: len(rep.traced),
		SetupS: seconds(rep.setupTimes), SetupExtraS: rep.setupExtra.Seconds(),
	}
	for _, c := range rep.calib {
		det.CalibMs = append(det.CalibMs, ms(c))
	}
	var walls, cpus []float64
	var lat []float64
	var allocs allocCounters
	for _, rr := range rep.rounds {
		walls = append(walls, rr.wall.Seconds())
		cpus = append(cpus, rr.cpu.Seconds())
		lat = append(lat, rr.lagMs...)
		allocs.objects += rr.allocs.objects
		allocs.bytes += rr.allocs.bytes
	}
	det.RoundWallS, det.RoundCPUS = walls, cpus
	// net-durable takes its latency from the paced rounds, not from the
	// closed-loop ones the rates and counts come from.
	if len(rep.paced) > 0 {
		lat = nil
		var late []float64
		for _, rr := range rep.paced {
			lat = append(lat, rr.lagMs...)
			late = append(late, rr.lateMs...)
			det.PacedWallS = append(det.PacedWallS, rr.wall.Seconds())
		}
		det.PacedRounds, det.PaceRate, det.PacerLateMs = len(rep.paced), paceRate, quantile(late, 0.9)
	}
	det.LatencyN, det.LatencyMsP90 = len(lat), quantile(lat, 0.9)
	for _, rr := range rep.traced {
		det.TracedWallS = append(det.TracedWallS, rr.wall.Seconds())
	}
	// Failure accounting covers every round run after the warm-up.
	for _, rr := range rep.all() {
		res.Attempted += int64(rr.ops)
		res.Failed += rr.failed
	}
	if len(rep.rounds) > 0 {
		det.StoreDigest = rep.rounds[0].storeDigest
	}
	det.Faults = rep.faults
	res.Correct = len(rep.faults) == 0 && res.Failed == 0

	if !rep.cfg.trace {
		set := func(name string, v float64) {
			res.Metrics[name] = metricValue{Value: v, Unit: unitOf(endToEndDefs, name)}
		}
		ops := float64(rep.ops)
		total := ops * float64(len(rep.rounds))
		set("setup_s", median(seconds(rep.setupTimes))+rep.setupExtra.Seconds())
		set("ops_per_s", ops/median(walls))
		set("cpu_us_per_op", median(cpus)*1e6/ops)
		set("allocs_per_op", float64(allocs.objects)/total)
		set("alloc_kb_per_op", float64(allocs.bytes)/1000/total)
		set("latency_ms_p50", median(lat))
		set("peak_rss_mb", rep.peakRSSMB)
		set("store_mb", float64(rep.rounds[len(rep.rounds)-1].storeBytes)/1e6)
		return res, det, nil
	}

	for _, d := range perLayerDefs {
		res.Metrics[d.Name] = metricValue{Unit: d.Unit}
	}
	set := func(name string, v float64) {
		res.Metrics[name] = metricValue{Value: v, Unit: unitOf(perLayerDefs, name)}
	}
	for name, v := range rep.drives {
		set(name, v)
	}
	rep.layerMetrics(set, det, walls, lat)
	return res, det, nil
}

// layerMetrics derives the per-layer numbers of a traced run from its
// spans and counters. walls and lat are the untraced reference rounds'.
func (rep *report) layerMetrics(set func(string, float64), det *detail, walls, lat []float64) {
	nT := float64(len(rep.traced))
	ops := float64(rep.ops)
	self, items := selfTimes(rep.tracer.spans, rep.tracedIdx)
	per := func(name string) float64 { // ns of self time per item
		if items[name] == 0 {
			return 0
		}
		return float64(self[name].Nanoseconds()) / float64(items[name])
	}
	share := func(part, whole float64) float64 {
		if whole == 0 {
			return 0
		}
		return part / whole
	}

	var tracedWalls []float64
	var covered time.Duration
	for _, rr := range rep.traced {
		tracedWalls = append(tracedWalls, rr.wall.Seconds())
	}
	for name, d := range self {
		if name != "round" && name != "batch" {
			covered += d
		}
	}
	if rep.cfg.workload == wlReplaySerial { // elsewhere spans run concurrently
		det.SelfCoverage = share(covered.Seconds(), sum(tracedWalls))
	}

	set("harness.calib_ms", median(det.CalibMs))
	set("harness.trace_overhead_pct", 100*(median(tracedWalls)-median(walls))/median(walls))
	set("harness.round_wall_iqr_pct", 100*pySpread(walls))
	set("harness.publish_lag_ms_p90", quantile(lat, 0.9))
	set("simnet.gen_us_per_tx", float64(rep.pool.genTime.Microseconds())/float64(len(rep.pool.txs)))

	// Counters summed over the traced rounds.
	var sumAllocs, ingAllocs, rejected, rows uint64
	var putTime time.Duration
	var windows int
	var dumpMs []float64
	var nc netCounters
	var qc queryCounters
	for _, rr := range rep.traced {
		sumAllocs += rr.stage.summarize
		ingAllocs += rr.stage.ingest
		rejected += rr.rejected
		rows += rr.rows
		putTime += rr.putTime
		windows += rr.windows
		dumpMs = append(dumpMs, rr.dumpMs...)
		nc.add(&rr.net)
		qc.add(&rr.query)
	}
	ingest := rep.cfg.workload != wlQueryMix
	if ingest {
		set("sie.read_ns_per_tx", per("sie.read"))
		set("sie.summarize_ns_per_tx", per("sie.summarize"))
		set("sie.summarize_allocs_per_tx", float64(sumAllocs)/(ops*nT))
		set("sie.reject_share", share(float64(rejected), ops*nT))
		set("observatory.ingest_ns_per_tx", per("observatory.ingest"))
		set("observatory.ingest_allocs_per_tx", float64(ingAllocs)/(ops*nT))
		// A synchronous engine dumps inside the ingest call that closes
		// the window, under its own span; the sharded engine dumps on its
		// workers and merger, seen from outside as publish lag minus the
		// time inside Store.Put.
		if n := items["observatory.dump"]; n > 0 {
			set("observatory.dump_ms_per_window", ms(self["observatory.dump"])/float64(n))
		} else {
			set("observatory.dump_ms_per_window", mean(dumpMs))
		}
		set("observatory.state_mb", rep.stateMB)
		set("tsv.put_ms_per_window", share(ms(putTime), float64(windows)))
		set("tsv.put_rows_per_s", share(float64(rows), putTime.Seconds()))
		set("tsv.cascade_ms_per_round", ms(self["tsv.cascade"])/nT)
		set("tsv.store_bytes_per_row", share(float64(rep.traced[0].storeBytes), float64(rows)/nT))
	}
	switch rep.cfg.workload {
	case wlReplaySharded:
		set("observatory.sharded_dispatch_ns_per_tx", per("observatory.ingest"))
		set("observatory.sharded_ingest_call_share", share(self["observatory.ingest"].Seconds(), sum(tracedWalls)))
		set("observatory.sharded_close_ms", ms(self["observatory.sharded_close"])/nT)
	case wlNetDurable:
		tx := ops * nT
		set("transport.sensor_write_ns_per_tx", float64(nc.sensorWrite.Nanoseconds())/tx)
		set("transport.wire_bytes_per_tx", float64(nc.writeBytes)/tx)
		set("transport.sensor_write_calls_per_ktx", float64(nc.writeCalls)*1000/tx)
		set("transport.collector_read_calls_per_ktx", float64(nc.readCalls)*1000/tx)
		set("transport.acks_per_ktx", float64(nc.coll.Acks)*1000/tx)
		set("transport.spilled_share", share(float64(nc.coll.Spilled), float64(nc.coll.Frames)))
		set("transport.consumer_wait_share", share(nc.consumerWait.Seconds(), (nc.consumerWait+nc.consumerWork).Seconds()))
	case wlQueryMix:
		q := float64(qc.queries)
		var direct []float64
		for class, name := range classNames {
			set("tsv.query_ms_p50."+name, median(qc.directMs[class]))
			direct = append(direct, qc.directMs[class]...)
		}
		set("tsv.query_ms_p99", quantile(direct, 0.99))
		set("tsv.blocks_decoded_per_query", float64(qc.blocksDecoded)/q)
		set("tsv.blocks_skipped_per_query", float64(qc.blocksSkipped)/q)
		set("tsv.bloom_skips_per_query", float64(qc.bloomSkips)/q)
		set("tsv.files_scanned_per_query", float64(qc.filesScanned)/q)
		set("tsv.list_cache_hit_share", share(float64(qc.listHits), float64(qc.listHits+qc.listMisses)))
		set("webui.query_overhead_ms_p50", median(qc.overheadMs))
		set("webui.response_kb_per_query", float64(qc.responseBytes)/1000/q)
	}
}

func (a *netCounters) add(b *netCounters) {
	a.coll.Acks += b.coll.Acks
	a.coll.Spilled += b.coll.Spilled
	a.coll.Frames += b.coll.Frames
	a.writeCalls += b.writeCalls
	a.writeBytes += b.writeBytes
	a.readCalls += b.readCalls
	a.consumerWait += b.consumerWait
	a.consumerWork += b.consumerWork
	a.sensorWrite += b.sensorWrite
}

func (a *queryCounters) add(b *queryCounters) {
	for c := range a.directMs {
		a.directMs[c] = append(a.directMs[c], b.directMs[c]...)
	}
	a.overheadMs = append(a.overheadMs, b.overheadMs...)
	a.responseBytes += b.responseBytes
	a.queries += b.queries
	a.blocksDecoded += b.blocksDecoded
	a.blocksSkipped += b.blocksSkipped
	a.bloomSkips += b.bloomSkips
	a.filesScanned += b.filesScanned
	a.listHits += b.listHits
	a.listMisses += b.listMisses
}

func sum(vals []float64) float64 {
	var s float64
	for _, v := range vals {
		s += v
	}
	return s
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	return sum(vals) / float64(len(vals))
}

// print writes the human-readable table, the detail line and, last, the
// result line the benchmark contract reads.
func printResult(w io.Writer, res *result, det *detail) error {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s seed %d: %d rounds of %d ops, %d attempted, %d failed, correct=%v\n",
		det.Workload, det.Seed, det.Rounds+det.TracedRounds+det.PacedRounds, det.OpsPerRound, res.Attempted, res.Failed, res.Correct)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "%-44s %16.6g %s\n", name, m.Value, m.Unit)
	}
	if det.LatencyN > 0 && !det.Trace {
		fmt.Fprintf(w, "# latency_ms_p50 is over %d samples (p90 %.4g ms)\n", det.LatencyN, det.LatencyMsP90)
	}
	if det.PacedRounds > 0 {
		fmt.Fprintf(w, "# latency is delivery lag over %d rounds paced at %.0f tx/s; the generator ran %.3g ms late at p90\n",
			det.PacedRounds, det.PaceRate, det.PacerLateMs)
	}
	for _, f := range det.Faults {
		fmt.Fprintf(w, "# FAULT %s\n", f)
	}
	db, err := json.Marshal(det)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# detail %s\n", db)
	rb, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", rb)
	return err
}
