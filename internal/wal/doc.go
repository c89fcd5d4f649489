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
// Durability is explicit, a ladder of three rungs, and every writer says
// which one it stands on:
//
//	staged    Stage   process memory    survives nothing
//	appended  Append  OS page cache     survives the process
//	synced    Sync    stable storage    survives the machine
//
// Staged records reach the segment in one write when something needs
// them there — Sync, Append, a rotation (which syncs, as Close does),
// Replay, a Cursor that has caught up with them, or 256 KiB of them — so
// the file holds the same bytes whichever rung they waited on. A
// collector's frames are staged until the Sync in front of their
// acknowledgement: it promises the frame is synced, and nothing before it
// promises anything (the sensor still holds the frame). A sensor's spill
// records and a collector's checkpoints are appended: a sensor's log is
// the only copy of what it captured and must survive its own kill -9.
// Anything acknowledged, put on the wire or checkpointed is synced first.
// A write that fails is cut back out of the file, so nothing flushed
// later lands behind a torn record.
//
// Cursor tails the log while appends continue — the reader a collector
// feeds its queue from. TrimTo garbage-collects sealed segments below a
// consumer checkpoint; Reset drops everything (a fully-acknowledged
// sensor log) while keeping positions monotone.
package wal
