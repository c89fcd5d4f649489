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
// with a bounded queue. Every frame takes one path to that channel
// (Collector.deliver): claimed, journaled if there is a journal, and
// enqueued inside one critical section. It is decoded into memory its
// reader shares out (bodies from 16 KiB chunks, transactions from 8 KiB
// slabs) and never reuses: a consumer may hold a transaction forever, and
// pins its slab and that slab's chunks while it does. A full queue is the
// only place configurations differ — a journal spills, and without one
// the Block/Shed overload policy decides, mirroring the sharded engine
// one layer up. Retransmission makes delivery at-least-once on the wire;
// the collector turns it into effectively-once at the channel by
// deduplicating on (sensor, epoch, seq) — a sequence number already
// claimed for that sensor epoch is counted in Deduped and dropped. The
// epoch (chosen by the sensor, random per incarnation) scopes the
// sequence space: a sensor that restarts without its WAL starts a
// fresh epoch and is not misjudged against the old one's window.
//
// A collector can itself journal: OpenWAL attaches a write-ahead log
// that absorbs bursts the bounded queue cannot (frames spill to disk
// and a tailer replays them in order), persists acknowledged-but-
// unconsumed frames across a crash (a frame is staged in memory until the
// Sync in front of its acknowledgement; one lost before that is one its
// sensor still holds), and is the unit of hand-off
// between fleet members — AbsorbLog replays a dead peer's journal
// through the same dedup gate, so a surviving collector adopts the dead
// one's sensors without loss or double counting (see internal/fleet).
//
// Concurrency contract: a Sensor is owned by one goroutine (Stats is
// the exception). A Collector runs one goroutine per connection plus
// one per Serve call, plus one WAL tailer when a journal is attached.
// Two connections of one sensor — a redial while the old connection's
// handler still has frames buffered — are safe: each sequence number
// reaches the channel exactly once, in sequence order, whichever
// handler carries it. Close stops accepting, cuts the connections,
// waits for the handlers and the tailer and closes the ingest channel,
// so the consumer drains by ranging until the channel closes. Both ends
// publish dnsobs_transport_* (and dnsobs_wal_*) metric families when
// given a registry.
package transport
