// Package transport is the networked sensor→collector boundary: the
// paper's Observatory ingests a ~200k tx/s feed streamed from hundreds
// of distributed SIE sensors (§2.1), and this package makes that split
// a real network protocol instead of an in-process function call.
//
// The wire format is a sequence of typed, length-prefixed frames over
// TCP or a Unix socket: a Hello handshake naming the sensor and its
// epoch (one hello version; a hello without an epoch is refused), then
// SeqData frames each carrying one serialized sie.Transaction, then an
// optional Bye. SeqData prefixes the payload with a per-sensor sequence
// number; the collector acknowledges the highest sequence it has
// accepted with Ack frames (whenever its read buffer drains, at least
// every 256 frames on a busy connection, and at Bye), so both ends
// agree on exactly which prefix of the stream is durably accepted.
//
// Sensor is the client: it batches frames, writes with deadlines, and
// reconnects with jittered exponential backoff, retransmitting the
// unacknowledged suffix so a connection torn mid-frame always resumes
// on a frame boundary. With SensorConfig.WALDir set, that suffix also
// lives in a write-ahead log (internal/wal), so a sensor process crash
// retransmits it too — the unacked window survives restarts.
//
// Collector is the server: it accepts many concurrent sensor
// connections and fans their streams into one ordered ingest channel
// with a bounded queue. Retransmission makes delivery at-least-once on
// the wire; the collector turns it into effectively-once at the channel
// by deduplicating on (sensor, epoch, seq) — a sequence number already
// claimed for that sensor epoch is counted in Deduped and dropped. The
// epoch (chosen by the sensor, random per incarnation) scopes the
// sequence space: a sensor that restarts without its WAL starts a fresh
// epoch and is not misjudged against the old one's window. Transactions
// are decoded into memory their reader shares out (bodies from 16 KiB
// chunks, transactions from 8 KiB slabs) and never reuses: a consumer
// may hold one forever, and pins its slab and that slab's chunks.
//
// Without a journal a handler claims, decodes and enqueues in one
// critical section (Collector.deliver), and at a full queue the
// Block/Shed overload policy decides, mirroring the sharded engine one
// layer up. With one (OpenWAL) the journal is the queue: a handler
// claims and stages the frame in one section and acknowledges it once a
// Sync has made it durable (a frame lost before that is one its sensor
// still holds); one tailer reads the journal from the consumer's
// checkpoint and is the only sender on the channel, so a full queue
// stalls no read and drops nothing. A restart delivers what was never
// checkpointed, and the journal is the unit of hand-off between fleet
// members — AbsorbLog takes a dead peer's journal through the same dedup
// gate, so a survivor adopts the dead one's sensors without loss or
// double counting (see internal/fleet).
//
// Concurrency contract: a Sensor is owned by one goroutine (Stats is
// the exception). A Collector runs one goroutine per connection plus
// one per Serve call, plus the tailer when a journal is attached. Two
// connections of one sensor — a redial while the old connection's
// handler still has frames buffered — are safe: each sequence number
// reaches the channel exactly once, in sequence order, whichever
// handler carries it. Close stops accepting, cuts the connections,
// waits for the handlers and the tailer and closes the ingest channel,
// so the consumer drains by ranging until the channel closes. Both ends
// publish dnsobs_transport_* (and dnsobs_wal_*) metric families when
// given a registry.
package transport
