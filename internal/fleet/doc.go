// Package fleet shards sensors across a set of collectors.
//
// Placement is a consistent-hash Ring over sensor names: deterministic
// (both ends compute the same owner), and minimally disruptive on
// membership change (a leaving collector's sensors scatter across the
// survivors; everyone else stays put). Router wraps the ring with dial
// addresses, down-cooldowns and connection-failure feedback, and its
// DialFunc plugs straight into transport.SensorConfig.Dial — the
// sensor's own reconnect machinery then lands it on its new owner
// after a rebalance or a crash, retransmitting its unacknowledged
// batch, which the collector-side (sensor, epoch, seq) dedup reduces
// to exactly-once.
//
// Each collector stores the windows of the sensors it owns; there is no
// merged copy of the fleet's windows. Failover composes with the
// transport's durable ingest: a dead collector's write-ahead log is
// absorbed past its last checkpoint by the survivors
// (transport.Collector.AbsorbLog), each taking the sensors the ring now
// assigns to it.
package fleet
