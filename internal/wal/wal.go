package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// Segment files are named by the position of their first record, so
// positions stay stable when old segments are garbage-collected:
//
//	wal-0000000000000001.seg
//
// Every segment starts with an 8-byte magic and holds length-prefixed,
// checksummed records:
//
//	[body length: u32 LE][crc32(body): u32 LE][body]
//	body = [kind: 1 byte][epoch: uvarint][len(sensor): uvarint][sensor]
//	       [seq: uvarint][payload: rest]
//
// Positions are 1-based and strictly increasing across segments,
// rotations and Reset, within the lifetime of one directory.
const (
	segMagic   = "DOBSWAL1"
	segPrefix  = "wal-"
	segSuffix  = ".seg"
	recHeader  = 8 // length + checksum
	baseDigits = 16
)

// MaxRecordBody bounds one record body: comfortably above the largest
// transport frame payload plus the sensor-name and varint overhead, and
// the cap on what recovery will ever allocate for one record, whatever
// the length prefix claims.
const MaxRecordBody = 1<<17 + 512

// stageCap is where Stage flushes by itself: ≈ 1 000 collector frames, far
// past where a write(2) is amortised, and all a writer that never syncs holds.
const stageCap = 256 << 10

// MaxSensorName bounds the sensor name carried in a record. It matches
// the transport hello limit.
const MaxSensorName = 256

// Kind tags what a record means to the layer that wrote it.
type Kind uint8

const (
	// KindData carries one journaled frame payload (a serialized
	// transaction) under the writer's (sensor, epoch, seq) identity.
	KindData Kind = 1
	// KindAck marks every data record with Seq' <= Seq as delivered
	// (sensor-side write-ahead logs).
	KindAck Kind = 2
	// KindCheckpoint marks every record with position <= Seq as consumed
	// and durably snapshotted (collector-side journals); replay after a
	// restart starts past it.
	KindCheckpoint Kind = 3
)

// Errors returned by the log. Recovery maps every malformed byte
// sequence to one of these (or io.ErrUnexpectedEOF for a record torn by
// a crash mid-write) — it never panics and never allocates more than
// MaxRecordBody for one record.
var (
	// ErrBadSegment reports corruption in a sealed segment — unlike a
	// torn active tail, which recovery truncates, a sealed segment was
	// fully written and synced, so damage there is data loss the caller
	// must decide about.
	ErrBadSegment = errors.New("wal: corrupt sealed segment")
	// ErrBadRecord reports a record that is structurally malformed: a
	// zero or oversized length prefix, a checksum mismatch, or an
	// undecodable body.
	ErrBadRecord = errors.New("wal: malformed record")
	// ErrRecordTooLarge is returned by Append for a record exceeding
	// MaxRecordBody or MaxSensorName.
	ErrRecordTooLarge = errors.New("wal: record exceeds size limit")
	// ErrClosed is returned by every method after Close.
	ErrClosed = errors.New("wal: log is closed")
)

// Record is one log entry.
type Record struct {
	Kind   Kind
	Sensor string
	Epoch  uint64
	Seq    uint64
	// Payload is the record body tail. Decoded records alias the read
	// buffer: valid until the next record is read; copy to retain.
	Payload []byte
}

// Options tunes a Log. The zero value is usable.
type Options struct {
	// SegmentBytes is the rotation threshold (default 8 MiB): an append
	// that would grow the active segment past it seals the segment and
	// starts a new one.
	SegmentBytes int
}

// Stats is a snapshot of a log's counters.
type Stats struct {
	// Appends counts records appended or staged in this process.
	Appends uint64
	// Writes counts the write calls that carried them into segments.
	Writes uint64
	// Syncs counts fsyncs of the active segment.
	Syncs uint64
	// Resets counts whole-log resets.
	Resets uint64
	// Trims counts sealed segments garbage-collected by TrimTo.
	Trims uint64
	// Recovered counts records found on disk at Open.
	Recovered uint64
	// TruncatedBytes counts bytes of torn active tail discarded at Open.
	TruncatedBytes uint64
}

// segment is one on-disk file of the log.
type segment struct {
	base    uint64 // position of its first record
	path    string
	records uint64
	size    int64 // bytes of whole records, magic included; on the active segment the staged ones too
}

// Log is a crash-safe, segment-based append log. All methods are safe
// for concurrent use; Cursor gives a reader that tails the log while
// appends continue.
type Log struct {
	dir  string
	opts Options

	mu      sync.Mutex
	segs    []*segment
	active  *os.File // append handle for the last segment
	nextPos uint64
	ckpt    uint64 // highest KindCheckpoint Seq scanned at Open or appended since
	stage   []byte // the newest `staged` records, encoded, not yet written to the active segment
	staged  uint64
	dirty   bool  // written since the last fsync
	broken  error // a torn write that could not be cut back; every later call returns it
	closed  bool
	write   func(*os.File, []byte) (int, error) // (*os.File).Write, or a test's that tears

	appends   atomic.Uint64
	writes    atomic.Uint64
	syncs     atomic.Uint64
	resets    atomic.Uint64
	trims     atomic.Uint64
	recovered uint64
	truncated uint64
}

// Open opens (creating if needed) the log in dir and recovers its
// state: every segment is scanned and checksummed, a torn tail on the
// active segment is truncated at the first bad record, and corruption
// in a sealed segment fails with ErrBadSegment.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 8 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts, write: (*os.File).Write}
	names, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	for _, path := range names {
		base, ok := parseSegName(filepath.Base(path))
		if !ok {
			continue // foreign file; leave it alone
		}
		l.segs = append(l.segs, &segment{base: base, path: path})
	}
	if len(l.segs) == 0 {
		if err := l.addSegment(1); err != nil {
			return nil, err
		}
		l.nextPos = 1
		return l, nil
	}
	for i, s := range l.segs {
		if i > 0 {
			prev := l.segs[i-1]
			if s.base != prev.base+prev.records {
				return nil, fmt.Errorf("%w: %s: first position %d does not follow %s (%d records from %d)",
					ErrBadSegment, s.path, s.base, prev.path, prev.records, prev.base)
			}
		}
		if err := l.scanSegment(s, i == len(l.segs)-1); err != nil {
			return nil, err
		}
	}
	last := l.segs[len(l.segs)-1]
	l.nextPos = last.base + last.records
	f, err := os.OpenFile(last.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	l.active = f
	return l, nil
}

// parseSegName extracts the base position from a segment file name.
func parseSegName(name string) (uint64, bool) {
	if len(name) != len(segPrefix)+baseDigits+len(segSuffix) ||
		name[:len(segPrefix)] != segPrefix || name[len(name)-len(segSuffix):] != segSuffix {
		return 0, false
	}
	var base uint64
	for _, c := range []byte(name[len(segPrefix) : len(segPrefix)+baseDigits]) {
		switch {
		case c >= '0' && c <= '9':
			base = base<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			base = base<<4 | uint64(c-'a'+10)
		default:
			return 0, false
		}
	}
	return base, base > 0
}

// segName renders the file name for a segment starting at pos.
func segName(pos uint64) string {
	return fmt.Sprintf("%s%0*x%s", segPrefix, baseDigits, pos, segSuffix)
}

// scanSegment validates one segment and counts its records. On the
// active (last) segment a torn or corrupt tail is truncated at the
// first bad record; on a sealed segment it is ErrBadSegment.
func (l *Log) scanSegment(s *segment, last bool) error {
	b, err := os.ReadFile(s.path)
	if err != nil {
		return err
	}
	if len(b) < len(segMagic) || string(b[:len(segMagic)]) != segMagic {
		if !last {
			return fmt.Errorf("%w: %s: bad segment header", ErrBadSegment, s.path)
		}
		// A crash between creating the file and writing the magic leaves
		// a short header; rewrite the segment as empty.
		l.truncated += uint64(len(b))
		if err := os.WriteFile(s.path, []byte(segMagic), 0o644); err != nil {
			return err
		}
		s.size = int64(len(segMagic))
		return nil
	}
	off := len(segMagic)
	for off < len(b) {
		rec, n, err := parseRecord(b[off:], "")
		if err != nil {
			if !last {
				return fmt.Errorf("%w: %s: offset %d: %v", ErrBadSegment, s.path, off, err)
			}
			l.truncated += uint64(len(b) - off)
			if err := os.Truncate(s.path, int64(off)); err != nil {
				return err
			}
			break
		}
		l.noteCheckpoint(rec)
		s.records++
		l.recovered++
		off += n
	}
	s.size = int64(off)
	return nil
}

// parseRecord decodes one record from the head of b. It returns the
// record and its encoded length, io.EOF on empty input,
// io.ErrUnexpectedEOF when b ends inside the record, and ErrBadRecord
// for structural damage. The payload aliases b. A record of sensor (the
// one read before it) shares that string instead of making its own.
func parseRecord(b []byte, sensor string) (Record, int, error) {
	rec := Record{Sensor: sensor}
	if len(b) == 0 {
		return rec, 0, io.EOF
	}
	if len(b) < recHeader {
		return rec, 0, io.ErrUnexpectedEOF
	}
	n := binary.LittleEndian.Uint32(b)
	if n == 0 || n > MaxRecordBody {
		return rec, 0, ErrBadRecord
	}
	if len(b) < recHeader+int(n) {
		return rec, 0, io.ErrUnexpectedEOF
	}
	body := b[recHeader : recHeader+int(n)]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(b[4:]) {
		return rec, 0, ErrBadRecord
	}
	if err := decodeBody(body, &rec); err != nil {
		return rec, 0, err
	}
	return rec, recHeader + int(n), nil
}

// decodeBody parses a record body into rec, keeping rec.Sensor when it
// is the record's. The payload aliases body.
func decodeBody(body []byte, rec *Record) error {
	if len(body) < 1 {
		return ErrBadRecord
	}
	kind := Kind(body[0])
	if kind != KindData && kind != KindAck && kind != KindCheckpoint {
		return ErrBadRecord
	}
	b := body[1:]
	epoch, n := binary.Uvarint(b)
	if n <= 0 {
		return ErrBadRecord
	}
	b = b[n:]
	nameLen, n := binary.Uvarint(b)
	if n <= 0 || nameLen > MaxSensorName || nameLen > uint64(len(b)-n) {
		return ErrBadRecord
	}
	name := b[n : n+int(nameLen)]
	b = b[n+int(nameLen):]
	seq, n := binary.Uvarint(b)
	if n <= 0 {
		return ErrBadRecord
	}
	rec.Kind = kind
	if string(name) != rec.Sensor {
		rec.Sensor = string(name)
	}
	rec.Epoch = epoch
	rec.Seq = seq
	rec.Payload = b[n:]
	return nil
}

// noteCheckpoint keeps the highest checkpoint the log has seen, so a
// reader need not replay the whole log to find where to start.
func (l *Log) noteCheckpoint(r Record) {
	if r.Kind == KindCheckpoint && r.Seq > l.ckpt {
		l.ckpt = r.Seq
	}
}

// addSegment creates a fresh segment starting at pos and makes it the
// active one. Caller holds l.mu (or is Open, single-threaded).
func (l *Log) addSegment(pos uint64) error {
	path := filepath.Join(l.dir, segName(pos))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(segMagic); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	syncDir(l.dir)
	l.segs = append(l.segs, &segment{base: pos, path: path, size: int64(len(segMagic))})
	l.active = f
	return nil
}

// syncDir fsyncs a directory so a just-created or just-removed segment
// file survives a crash. Best-effort: some filesystems reject it.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// Stage encodes one record at the tail of the staging buffer and
// returns its position. The record is in process memory and survives
// nothing; it reaches the active segment, with everything staged before
// it, in one write when something needs it there (see the package
// comment), at the latest when the buffer passes stageCap.
func (l *Log) Stage(r Record) (uint64, error) { return l.put(r, false) }

// Append is Stage, then flush: the record is in the OS page cache on
// return — it survives this process — and on stable storage after the
// next Sync, rotation or Close. A record whose write failed (a position
// comes back with the error) stays staged for the next flush.
func (l *Log) Append(r Record) (uint64, error) { return l.put(r, true) }

func (l *Log) put(r Record, flush bool) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case len(r.Sensor) > MaxSensorName:
		return 0, ErrRecordTooLarge
	case l.closed:
		return 0, ErrClosed
	case l.broken != nil:
		return 0, l.broken
	}
	// The record lies past len(l.stage) until it is accounted below: an
	// early return leaves the buffer as it was.
	b := append(l.stage, 0, 0, 0, 0, 0, 0, 0, 0, byte(r.Kind))
	b = binary.AppendUvarint(b, r.Epoch)
	b = binary.AppendUvarint(b, uint64(len(r.Sensor)))
	b = append(b, r.Sensor...)
	b = binary.AppendUvarint(b, r.Seq)
	b = append(b, r.Payload...)
	rec := b[len(l.stage):]
	body := rec[recHeader:]
	if len(body) > MaxRecordBody {
		return 0, ErrRecordTooLarge
	}
	binary.LittleEndian.PutUint32(rec, uint32(len(body)))
	binary.LittleEndian.PutUint32(rec[4:], crc32.ChecksumIEEE(body))

	s := l.segs[len(l.segs)-1]
	if s.records > 0 && s.size+int64(len(rec)) > int64(l.opts.SegmentBytes) {
		// Seal the segment, what was staged before this record included,
		// and move the record to the front of the emptied buffer.
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
		if err := l.active.Close(); err != nil {
			return 0, err
		}
		if err := l.addSegment(l.nextPos); err != nil {
			return 0, err
		}
		s = l.segs[len(l.segs)-1]
		b = append(b[:0], rec...)
	}
	l.stage = b
	l.staged++
	s.size += int64(len(rec))
	s.records++
	pos := l.nextPos
	l.nextPos++
	l.appends.Add(1)
	l.noteCheckpoint(r)
	if flush || len(l.stage) >= stageCap {
		return pos, l.flushLocked()
	}
	return pos, nil
}

// flushLocked writes everything staged to the active segment, in one
// write. A failed or short one leaves part of a record in the file, and
// Open truncates at the first bad record: whatever was flushed behind it
// later would be lost with it, synced or not. So the file is cut back —
// the records stay staged — and if that fails too the log is broken.
func (l *Log) flushLocked() error {
	if l.broken != nil || len(l.stage) == 0 {
		return l.broken
	}
	l.writes.Add(1)
	if _, err := l.write(l.active, l.stage); err != nil {
		flushed := l.segs[len(l.segs)-1].size - int64(len(l.stage))
		if terr := l.active.Truncate(flushed); terr != nil {
			l.broken = fmt.Errorf("wal: torn write left in place (%v): %w", terr, err)
			return l.broken
		}
		return err
	}
	l.stage, l.staged, l.dirty = l.stage[:0], 0, true
	return nil
}

// Sync flushes and fsyncs the active segment, if there is anything to:
// every record so far is on stable storage when it returns nil.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if err := l.flushLocked(); err != nil {
		return err
	}
	if !l.dirty {
		return nil
	}
	if err := l.active.Sync(); err != nil {
		return err
	}
	l.dirty = false
	l.syncs.Add(1)
	return nil
}

// Close syncs and closes the log. The directory can be re-Opened.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	err := l.syncLocked()
	if cerr := l.active.Close(); err == nil {
		err = cerr
	}
	l.closed = true
	return err
}

// Replay calls fn for every record in the log, in position order (what
// is staged is flushed on the way), until it has caught up: it is a
// Cursor from the first position. Corruption that appeared after Open
// returns ErrBadSegment. fn errors abort the replay. The record payload
// is valid only during the call.
func (l *Log) Replay(fn func(pos uint64, r Record) error) error {
	c := l.NewCursor(1)
	defer c.Close()
	for {
		pos, r, ok, err := c.Next()
		if err == nil && ok {
			err = fn(pos, r)
		}
		if err != nil || !ok {
			return err
		}
	}
}

// TrimTo garbage-collects sealed segments whose records all have
// positions <= pos — the caller's durable checkpoint. The active
// segment is never removed, so positions keep increasing.
func (l *Log) TrimTo(pos uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	kept := l.segs[:0]
	removed := false
	for i, s := range l.segs {
		if i < len(l.segs)-1 && s.base+s.records <= pos+1 {
			if err := os.Remove(s.path); err != nil {
				return err
			}
			l.trims.Add(1)
			removed = true
			continue
		}
		kept = append(kept, s)
	}
	l.segs = kept
	if removed {
		syncDir(l.dir)
	}
	return nil
}

// Reset discards every record and starts an empty segment. Positions
// continue from where they were — a log reset at position N hands out
// N+1 next, so readers never see a position reused.
func (l *Log) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if err := l.active.Close(); err != nil {
		return err
	}
	for _, s := range l.segs {
		if err := os.Remove(s.path); err != nil {
			return err
		}
	}
	l.segs = l.segs[:0]
	if err := l.addSegment(l.nextPos); err != nil {
		return err
	}
	l.stage, l.staged, l.dirty = l.stage[:0], 0, false
	l.resets.Add(1)
	return nil
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// LastPos returns the position of the newest record, 0 when the log
// has never held one.
func (l *Log) LastPos() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextPos - 1
}

// Checkpointed returns the highest KindCheckpoint Seq the log holds or
// has held since Open — the position up to which its writer declared
// every record consumed — and 0 when it has never seen one. Trimming
// the segment an older checkpoint record sits in does not lower it.
func (l *Log) Checkpointed() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ckpt
}

// Size returns the total bytes across segments, staged records included.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var n int64
	for _, s := range l.segs {
		n += s.size
	}
	return n
}

// Segments returns the number of on-disk segment files.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}

// Stats returns a snapshot of the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	recovered, truncated := l.recovered, l.truncated
	l.mu.Unlock()
	return Stats{
		Appends:        l.appends.Load(),
		Writes:         l.writes.Load(),
		Syncs:          l.syncs.Load(),
		Resets:         l.resets.Load(),
		Trims:          l.trims.Load(),
		Recovered:      recovered,
		TruncatedBytes: truncated,
	}
}
