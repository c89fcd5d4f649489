// Package wal is a crash-safe, segment-based write-ahead spill log for
// the transport layer's durable-ingest path.
//
// A Log is a directory of segment files named by the position of their
// first record (wal-%016x.seg), so positions survive garbage
// collection of old segments. Records are length-prefixed and CRC32-
// checksummed, and carry a (sensor, epoch, seq) identity plus an opaque
// payload — enough for the collector to journal accepted frames before
// enqueue and deduplicate them on replay, and for the sensor to make
// its unacknowledged batch survive a process restart.
//
// Recovery at Open scans and checksums every segment: a tail torn by a
// crash mid-write on the active segment is truncated at the first bad
// record (the records before it stay usable), while corruption inside
// a sealed segment — data that was fully written and synced — fails
// with the typed ErrBadSegment so the caller decides about the loss.
//
// Durability is explicit: Append leaves the record in the OS page
// cache; Sync is the barrier (the transport syncs before it lets a
// frame onto the wire, before it acknowledges a journaled frame, and
// at a checkpoint). Rotation and Close sync as well.
//
// Cursor tails the log while appends continue — the replay half of
// spill-then-replay. TrimTo garbage-collects sealed segments below a
// consumer checkpoint; Reset drops everything (a fully-acknowledged
// sensor log) while keeping positions monotone.
package wal
