package main

// metricDef names one metric of the benchmark. BENCHMARK.json at the
// repository root lists the same names, units, directions and bounds;
// TestBenchmarkJSON fails when the two drift apart.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: allowed worsening
}

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is run_seconds of BENCHMARK.json and the default of
// -seconds: every comparison runs at this length.
const runSeconds = 18

const (
	wlReplaySerial  = "replay-serial"
	wlReplaySharded = "replay-sharded-detect"
	wlNetDurable    = "net-durable"
	wlQueryMix      = "query-mix"
)

var workloadDefs = []workloadDef{
	{wlReplaySerial, "dnsobs -i file: stream reader, summarizer, serial engine with the 8 standard aggregations, TSV store, cascade; the single-threaded baseline where the engine is most of the time"},
	{wlReplaySharded, "same pool through the sharded engine with detection and the columnar store: the only workload where dispatch, worker queues, MergeParts and detect do work"},
	{wlNetDurable, "dnsgen -connect into dnsobs -listen -wal over loopback, two-aggregation engine: sie, transport and wal are nearly all of the CPU; closed loop for rates, then paced at 100k tx/s for latency"},
	{wlQueryMix, "GET /api/query mix (top-k, point hit, point miss, projected where-scan) against a populated columnar store: the read path, which bypasses every ingest layer"},
}

// endToEndDefs are what a user of the system sees. Every workload
// reports every one. A bound must exceed the spread of ten runs at ten
// seeds on a shared 2-core box; NOISE.md holds the measurements behind
// each, and why they are wider than the issue hoped.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.10},
	{"alloc_kb_per_op", "KB", "lower", 0.20},
	{"latency_ms_p50", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"store_mb", "MB", "lower", 0.08},
}

// sameSeedBound is the bound on the three count metrics when both sides
// of a comparison ran the same seeds. At one seed they repeat to 0.1 %
// (store_mb to the byte); between seeds they move by 1.5-9 %, because a
// seed is another simnet universe, and the bounds above must absorb that
// to pass a ten-seed spread check. So a parent-against-change comparison
// pairs its runs by seed and holds the median per-seed change of these
// metrics to 1 %, which is what -selfcheck does to its two sets.
var sameSeedBound = map[string]float64{
	"allocs_per_op":   0.01,
	"alloc_kb_per_op": 0.01,
	"store_mb":        0.01,
}

// perLayerDefs come from the -trace run. A metric whose layer a workload
// does not exercise reads 0 there; the isolated drives (marked "drive" in
// README.md) depend only on the pool and run under every workload.
var perLayerDefs = []metricDef{
	{Name: "harness.calib_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "harness.round_wall_iqr_pct", Unit: "%", Better: "lower"},
	{Name: "harness.publish_lag_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "simnet.gen_us_per_tx", Unit: "us", Better: "lower"},

	{Name: "sie.read_ns_per_tx", Unit: "ns", Better: "lower"},
	{Name: "sie.summarize_ns_per_tx", Unit: "ns", Better: "lower"},
	{Name: "sie.summarize_allocs_per_tx", Unit: "count", Better: "lower"},
	{Name: "sie.reject_share", Unit: "share", Better: "lower"},
	{Name: "dnswire.unpack_ns_per_msg", Unit: "ns", Better: "lower"},

	{Name: "observatory.ingest_ns_per_tx", Unit: "ns", Better: "lower"},
	{Name: "observatory.ingest_1agg_ns_per_tx", Unit: "ns", Better: "lower"},
	{Name: "observatory.ingest_allocs_per_tx", Unit: "count", Better: "lower"},
	{Name: "observatory.dump_ms_per_window", Unit: "ms", Better: "lower"},
	{Name: "observatory.state_mb", Unit: "MB", Better: "lower"},
	{Name: "spacesaving.observe_ns_per_key", Unit: "ns", Better: "lower"},
	{Name: "spacesaving.evictions_per_kkey", Unit: "count", Better: "lower"},
	{Name: "features.observe_ns_per_tx", Unit: "ns", Better: "lower"},
	{Name: "hll.add_ns_per_hash", Unit: "ns", Better: "lower"},

	{Name: "observatory.sharded_dispatch_ns_per_tx", Unit: "ns", Better: "lower"},
	{Name: "observatory.sharded_ingest_call_share", Unit: "share", Better: "lower"},
	{Name: "observatory.sharded_close_ms", Unit: "ms", Better: "lower"},
	{Name: "detect.observe_ns_per_tx", Unit: "ns", Better: "lower"},

	{Name: "transport.sensor_write_ns_per_tx", Unit: "ns", Better: "lower"},
	{Name: "transport.frame_ns_per_tx", Unit: "ns", Better: "lower"},
	{Name: "transport.wire_bytes_per_tx", Unit: "B", Better: "lower"},
	{Name: "transport.sensor_write_calls_per_ktx", Unit: "count", Better: "lower"},
	{Name: "transport.collector_read_calls_per_ktx", Unit: "count", Better: "lower"},
	{Name: "transport.acks_per_ktx", Unit: "count", Better: "lower"},
	{Name: "transport.spilled_share", Unit: "share", Better: "lower"},
	{Name: "transport.consumer_wait_share", Unit: "share", Better: "higher"},
	{Name: "wal.append_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "wal.replay_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "wal.bytes_per_tx", Unit: "B", Better: "lower"},
	{Name: "wal.segments", Unit: "count", Better: "lower"},

	{Name: "tsv.put_ms_per_window", Unit: "ms", Better: "lower"},
	{Name: "tsv.put_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "tsv.cascade_ms_per_round", Unit: "ms", Better: "lower"},
	{Name: "tsv.store_bytes_per_row", Unit: "B", Better: "lower"},
	{Name: "tsv.query_ms_p50.topk", Unit: "ms", Better: "lower"},
	{Name: "tsv.query_ms_p50.point_hit", Unit: "ms", Better: "lower"},
	{Name: "tsv.query_ms_p50.point_miss", Unit: "ms", Better: "lower"},
	{Name: "tsv.query_ms_p50.scan_where", Unit: "ms", Better: "lower"},
	{Name: "tsv.query_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "tsv.blocks_decoded_per_query", Unit: "count", Better: "lower"},
	{Name: "tsv.blocks_skipped_per_query", Unit: "count", Better: "higher"},
	{Name: "tsv.bloom_skips_per_query", Unit: "count", Better: "higher"},
	{Name: "tsv.files_scanned_per_query", Unit: "count", Better: "lower"},
	{Name: "tsv.list_cache_hit_share", Unit: "share", Better: "higher"},
	{Name: "webui.query_overhead_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "webui.response_kb_per_query", Unit: "KB", Better: "lower"},
}
