package wal

import (
	"fmt"
	"io"
	"os"
)

// cursorWindow is how much of a segment a cursor reads at a time: ≈ 250
// collector records per pread (a larger record gets its own).
const cursorWindow = 64 << 10

// Cursor reads records in position order while appends continue — the
// tailing reader behind spill-then-replay. It holds its own read
// handle, so it never blocks the appender beyond the brief metadata
// lookups under the log lock (and the flush, once it has caught up with
// what is staged). A Cursor is for one goroutine; it is safe against
// concurrent Append/Stage/Sync/TrimTo on the same log.
type Cursor struct {
	l    *Log
	next uint64 // position the next Next returns

	f    *os.File
	r    io.ReaderAt // f, or what wrap made of it
	base uint64      // base of the open segment
	off  int64       // segment offset of win[0]
	win  []byte      // read from the segment and not yet returned; part of buf
	skip uint64      // whole records between off and next: a cursor opened mid-segment walks there
	buf  []byte
	wrap func(io.ReaderAt) io.ReaderAt // tests only: counts the reads
	last string                        // the last record's Sensor, shared by the next of that sensor
}

// NewCursor returns a cursor positioned at start (1-based). A start
// below the oldest retained record — trimmed away — is advanced to it.
func (l *Log) NewCursor(start uint64) *Cursor {
	if start == 0 {
		start = 1
	}
	return &Cursor{l: l, next: start}
}

// Pos returns the position the next Next call will return.
func (c *Cursor) Pos() uint64 { return c.next }

// Next returns the next record. ok is false when the cursor has caught
// up with the appender (call again after more appends). The record
// payload is valid until the following Next.
func (c *Cursor) Next() (pos uint64, rec Record, ok bool, err error) {
	l := c.l
	l.mu.Lock()
	if l.segs[0].base > c.next {
		// Everything below the oldest segment was trimmed away — those
		// records were checkpointed, skip to what is retained.
		c.next = l.segs[0].base
	}
	switch {
	case l.closed:
		err = ErrClosed
	case c.next >= l.nextPos: // caught up
	case c.next >= l.nextPos-l.staged:
		// Everything the files hold has been read: the record is staged.
		err = l.flushLocked()
	}
	if err != nil || c.next >= l.nextPos {
		l.mu.Unlock()
		return 0, rec, false, err
	}
	seg := l.segs[0] // the last one that starts at or below c.next
	for _, s := range l.segs[1:] {
		if s.base <= c.next {
			seg = s
		}
	}
	base, path, flushed := seg.base, seg.path, seg.size
	if seg == l.segs[len(l.segs)-1] {
		flushed -= int64(len(l.stage))
	}
	l.mu.Unlock()

	if c.f == nil || c.base != base {
		c.Close()
		f, err := os.Open(path)
		if err != nil {
			return 0, rec, false, err
		}
		c.f, c.r, c.base = f, f, base
		if c.wrap != nil {
			c.r = c.wrap(f)
		}
		c.off, c.win, c.skip = int64(len(segMagic)), nil, c.next-base
	}
	for {
		r, n, err := parseRecord(c.win, c.last)
		if err == nil {
			c.win, c.off, c.last = c.win[n:], c.off+int64(n), r.Sensor
			if c.skip > 0 {
				c.skip--
				continue
			}
			c.next++
			// When the segment is exhausted the next call re-resolves: the
			// same file may have grown (handle and offset stay valid), or
			// the cursor rolls over to the next segment.
			return c.next - 1, r, true, nil
		}
		// The window ends inside the record at c.off: read on from there, a
		// window of the flushed bytes or, if it was one already, as much as
		// any record takes. Less than it held means the log counts a record
		// the file does not hold.
		want := int64(cursorWindow)
		if len(c.win) >= cursorWindow {
			want = recHeader + MaxRecordBody
		}
		want = min(want, flushed-c.off)
		if (err != io.EOF && err != io.ErrUnexpectedEOF) || want <= int64(len(c.win)) {
			return 0, rec, false, fmt.Errorf("%w: %s: offset %d: %v", ErrBadSegment, path, c.off, err)
		}
		if int64(cap(c.buf)) < want {
			c.buf = make([]byte, want)
		}
		c.win = nil // it is part of buf, which the read overwrites
		if _, err := c.r.ReadAt(c.buf[:want], c.off); err != nil {
			return 0, rec, false, err
		}
		c.win = c.buf[:want]
	}
}

// Close releases the cursor's read handle.
func (c *Cursor) Close() {
	if c.f != nil {
		c.f.Close()
		c.f = nil
	}
}
