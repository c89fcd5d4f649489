package transport

import "dnsobservatory/internal/metrics"

// Metric family names published by the transport layer. Exported as
// constants so consumers (health checks, the chaos soaks) read
// families by name without string drift.
const (
	// MetricConnections counts connections by role: accepted sensor
	// connections on the collector, successful dials on a sensor.
	MetricConnections = "dnsobs_transport_connections_total"
	// MetricActiveConns is the collector's live connection count.
	MetricActiveConns = "dnsobs_transport_active_connections"
	// MetricFrames counts frames by role and direction: Data frames
	// received by the collector (dir="rx"), frames flushed to the wire
	// by a sensor (dir="tx").
	MetricFrames = "dnsobs_transport_frames_total"
	// MetricReconnects counts successful sensor re-dials after a lost
	// connection, labeled by sensor name.
	MetricReconnects = "dnsobs_transport_reconnects_total"
	// MetricQueueDepth is the collector's ingest channel depth, sampled
	// at scrape time.
	MetricQueueDepth = "dnsobs_transport_queue_depth"
	// MetricShed counts transactions dropped by the collector's Shed
	// overload policy.
	MetricShed = "dnsobs_transport_shed_total"
	// MetricDecodeErrors counts well-framed Data payloads that failed
	// to decode as transactions.
	MetricDecodeErrors = "dnsobs_transport_decode_errors_total"
	// MetricDisconnects counts collector-side connection ends by
	// reason: "eof" (clean), "error" (read/frame error, including
	// deadline cuts of stalled senders), "protocol" (handshake or
	// unexpected frame).
	MetricDisconnects = "dnsobs_transport_disconnects_total"
	// MetricUnacked is a sensor's unacknowledged-batch depth:
	// transactions written but not yet confirmed by the collector,
	// sampled at scrape time and labeled by sensor name.
	MetricUnacked = "dnsobs_transport_unacked"
	// MetricDeduped counts sequenced frames the collector dropped as
	// already-seen (sensor, epoch, seq) replays.
	MetricDeduped = "dnsobs_transport_deduped_total"
	// MetricAcks counts acknowledgement frames the collector sent.
	MetricAcks = "dnsobs_transport_acks_total"
	// MetricEnqueued counts transactions the collector put on its
	// ingest channel.
	MetricEnqueued = "dnsobs_transport_enqueued_total"
	// MetricWALReplayed counts transactions that entered from a journal
	// rather than a connection: records past the checkpoint at OpenWAL,
	// and records absorbed from a dead peer's journal.
	MetricWALReplayed = "dnsobs_wal_replayed_total"
	// MetricWALAppends counts journal record appends.
	MetricWALAppends = "dnsobs_wal_appends_total"
	// MetricWALWrites and MetricWALSyncs count write calls and fsyncs on
	// journal segments: appends over either is the batch.
	MetricWALWrites = "dnsobs_wal_writes_total"
	MetricWALSyncs  = "dnsobs_wal_syncs_total"
	// MetricWALSize is the journal's size in bytes, ≤ 256 KiB staged included.
	MetricWALSize = "dnsobs_wal_size_bytes"
	// MetricWALSegments is the journal's segment-file count.
	MetricWALSegments = "dnsobs_wal_segments"
	// MetricWALCheckpoint is the highest checkpointed journal position.
	MetricWALCheckpoint = "dnsobs_wal_checkpoint_position"
)

// collectorMetrics is the collector's counter set. Like the engines'
// accounting, the counters are the single source of truth — with a
// registry configured they are registered under role="collector"; a nil
// one hands out standalone counters, so tests never contaminate a shared
// registry. Stats() reads the same storage either way.
type collectorMetrics struct {
	connections    *metrics.Counter
	frames         *metrics.Counter
	shed           *metrics.Counter
	decodeErrors   *metrics.Counter
	disconnectEOF  *metrics.Counter
	disconnectErr  *metrics.Counter
	disconnectProt *metrics.Counter
	deduped        *metrics.Counter
	acks           *metrics.Counter
	enqueued       *metrics.Counter
	replayed       *metrics.Counter
}

func newCollectorMetrics(reg *metrics.Registry) *collectorMetrics {
	return &collectorMetrics{
		connections:    reg.Counter(MetricConnections, "transport connections by role", "role", "collector"),
		frames:         reg.Counter(MetricFrames, "transport frames by role and direction", "role", "collector", "dir", "rx"),
		shed:           reg.Counter(MetricShed, "transactions dropped by the collector overload policy", "role", "collector"),
		decodeErrors:   reg.Counter(MetricDecodeErrors, "well-framed payloads that failed to decode", "role", "collector"),
		disconnectEOF:  reg.Counter(MetricDisconnects, "connection ends by reason", "role", "collector", "reason", "eof"),
		disconnectErr:  reg.Counter(MetricDisconnects, "connection ends by reason", "role", "collector", "reason", "error"),
		disconnectProt: reg.Counter(MetricDisconnects, "connection ends by reason", "role", "collector", "reason", "protocol"),
		deduped:        reg.Counter(MetricDeduped, "sequenced frames dropped as already-seen replays", "role", "collector"),
		acks:           reg.Counter(MetricAcks, "acknowledgement frames sent to sensors", "role", "collector"),
		enqueued:       reg.Counter(MetricEnqueued, "transactions put on the ingest channel", "role", "collector"),
		replayed:       reg.Counter(MetricWALReplayed, "transactions recovered from the journal at start or absorbed from a peer's", "role", "collector"),
	}
}

// sensorMetrics is one sensor's counter set, labeled by sensor name so
// N sensors in one process stay separable.
type sensorMetrics struct {
	connects   *metrics.Counter
	reconnects *metrics.Counter
	frames     *metrics.Counter
}

func newSensorMetrics(reg *metrics.Registry, name string) *sensorMetrics {
	return &sensorMetrics{
		connects:   reg.Counter(MetricConnections, "transport connections by role", "role", "sensor", "sensor", name),
		reconnects: reg.Counter(MetricReconnects, "successful sensor re-dials after a lost connection", "sensor", name),
		frames:     reg.Counter(MetricFrames, "transport frames by role and direction", "role", "sensor", "dir", "tx", "sensor", name),
	}
}
