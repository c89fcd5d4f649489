package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALRecord throws arbitrary bytes at the two recovery surfaces.
//
// The in-memory contract: parseRecord never panics, never allocates
// beyond MaxRecordBody whatever the length prefix claims (it only
// slices its input), and maps every malformed buffer to a typed error
// — io.EOF / io.ErrUnexpectedEOF for clean / torn ends, ErrBadRecord
// for hostile lengths, checksum mismatches and undecodable bodies.
//
// The on-disk contract: Open over an active segment holding the same
// bytes never fails — whatever the damage, recovery truncates at the
// first bad record and the log accepts appends again.
func FuzzWALRecord(f *testing.F) {
	// Well-formed seeds: each record kind, empty payload, long name.
	l, err := Open(f.TempDir(), Options{})
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range []Record{
		{Kind: KindData, Sensor: "s", Epoch: 1, Seq: 9, Payload: []byte("tx")},
		{Kind: KindAck, Sensor: "sensor-name", Epoch: 1 << 40, Seq: 1},
		{Kind: KindCheckpoint, Seq: 1 << 62},
	} {
		if _, err := l.Append(r); err != nil {
			f.Fatal(err)
		}
	}
	whole, err := os.ReadFile(filepath.Join(l.Dir(), segName(1)))
	if err != nil {
		f.Fatal(err)
	}
	l.Close()
	body := whole[len(segMagic):]
	f.Add(body)
	f.Add(body[:len(body)-1]) // torn tail
	f.Add(body[recHeader:])   // header cut off: misaligned stream
	// Malformed seeds steering the fuzzer at each error path.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})             // zero length
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0}) // hostile length
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 0, 9, 9, 9})    // bad checksum
	func() {
		// Valid envelope, undecodable body (unknown kind).
		b := []byte{1, 0, 0, 0, 0, 0, 0, 0, 0xee}
		binary.LittleEndian.PutUint32(b[4:], crc32.ChecksumIEEE(b[recHeader:]))
		f.Add(b)
	}()

	f.Fuzz(func(t *testing.T, data []byte) {
		// Surface 1: the pure decoder over the raw stream.
		off := 0
		for {
			rec, n, err := parseRecord(data[off:])
			if err != nil {
				switch {
				case errors.Is(err, io.EOF),
					errors.Is(err, io.ErrUnexpectedEOF),
					errors.Is(err, ErrBadRecord):
				default:
					t.Fatalf("untyped error from parseRecord: %v", err)
				}
				break
			}
			if n <= recHeader || n > recHeader+MaxRecordBody {
				t.Fatalf("parseRecord returned length %d", n)
			}
			if len(rec.Payload) > MaxRecordBody {
				t.Fatalf("over-long payload: %d bytes", len(rec.Payload))
			}
			off += n
		}

		// Surface 2: recovery over the same bytes as an active segment.
		dir := t.TempDir()
		seg := append([]byte(segMagic), data...)
		if err := os.WriteFile(filepath.Join(dir, segName(1)), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		lg, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("recovery failed on an active segment: %v", err)
		}
		defer lg.Close()
		if _, err := lg.Append(Record{Kind: KindData, Sensor: "s", Seq: 1}); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if err := lg.Replay(func(uint64, Record) error { return nil }); err != nil {
			t.Fatalf("replay after recovery: %v", err)
		}
	})
}

// FuzzWALOps drives a log with an arbitrary interleaving of everything a
// writer and a tailing reader can do to it — Append, Stage, Sync, a
// cursor's Next, Replay, TrimTo, Reset, records large enough to rotate
// the tiny segments, and a crash: the process dies with whatever was
// staged, and the directory is opened again — against an in-memory list
// of what was written.
//
// What must hold whatever the sequence: a record gets the position after
// its predecessor's, and no position is handed out twice to records that
// both exist; Replay returns exactly the retained records; the cursor
// returns every record once, in order, staged or flushed, and reports
// the end only at the end; a crash loses nothing that an Append, a Sync,
// a Replay or the cursor had seen on its way to the file, keeps no
// record behind one it lost, and leaves no torn tail.
func FuzzWALOps(f *testing.F) {
	f.Add([]byte{1, 10, 1, 20, 8, 0, 1, 30, 2, 0, 8, 0})          // stage, stage, crash; stage, sync, crash
	f.Add([]byte{1, 200, 1, 200, 3, 0, 3, 0, 3, 0, 8, 0, 3, 0})   // the cursor flushes what it catches up with
	f.Add([]byte{0, 5, 7, 0, 1, 9, 7, 0, 1, 9, 6, 0, 3, 0, 8, 0}) // rotate, trim, read on
	f.Add([]byte{1, 1, 5, 0, 1, 2, 8, 0, 0, 3, 4, 0, 3, 0})       // reset, crash, replay
	f.Add([]byte{0, 1, 5, 0, 3, 0, 0, 2, 3, 0})                   // a cursor behind a reset that left nothing
	f.Fuzz(func(t *testing.T, ops []byte) {
		dir := t.TempDir()
		opts := Options{SegmentBytes: 512}
		l, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		var (
			all     = map[uint64]Record{} // every record that exists, by position
			first   = uint64(1)           // oldest retained position
			next    = uint64(1)           // position the next record gets
			safe    = uint64(0)           // everything up to here has been seen on its way to the file
			readPos = uint64(1)           // what the cursor returns next
			cur     = l.NewCursor(1)
		)
		same := func(where string, pos uint64, got Record) {
			t.Helper()
			want, ok := all[pos]
			if !ok || got.Kind != want.Kind || got.Sensor != want.Sensor || got.Epoch != want.Epoch ||
				got.Seq != want.Seq || !bytes.Equal(got.Payload, want.Payload) {
				t.Fatalf("%s: position %d holds %+v, want %+v (exists: %v)", where, pos, got, want, ok)
			}
		}
		replay := func(where string, lg *Log) (last uint64) {
			t.Helper()
			expect := first
			err := lg.Replay(func(pos uint64, r Record) error {
				if pos != expect {
					t.Fatalf("%s: replay at position %d, want %d", where, pos, expect)
				}
				same(where, pos, r)
				expect++
				return nil
			})
			if err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			return expect - 1
		}
		put := func(stage bool, arg byte, size int) {
			t.Helper()
			r := Record{Kind: Kind(1 + arg%3), Sensor: "s" + string(rune('a'+arg%4)), Epoch: uint64(arg), Seq: next * 7,
				Payload: bytes.Repeat([]byte{arg}, size)}
			fn := l.Append
			if stage {
				fn = l.Stage
			}
			pos, err := fn(r)
			if err != nil || pos != next {
				t.Fatalf("record at position %d: got %d, %v", next, pos, err)
			}
			all[pos] = r
			if next++; !stage {
				safe = pos
			}
		}
		for i := 0; i+1 < len(ops) && i < 400; i += 2 {
			op, arg := ops[i]%9, ops[i+1]
			switch op {
			case 0:
				put(false, arg, int(arg))
			case 1:
				put(true, arg, int(arg))
			case 2:
				if err := l.Sync(); err != nil {
					t.Fatal(err)
				}
				safe = next - 1
			case 3:
				pos, r, ok, err := cur.Next()
				if err != nil {
					t.Fatalf("cursor at %d: %v", readPos, err)
				}
				if readPos < first {
					readPos = first // trimmed or reset away under the cursor
				}
				if ok != (readPos < next) {
					t.Fatalf("cursor at %d of %d: ok=%v", readPos, next, ok)
				}
				if ok {
					if pos != readPos {
						t.Fatalf("cursor returned position %d, want %d", pos, readPos)
					}
					same("cursor", pos, r)
					readPos++
					safe = max(safe, pos)
				}
			case 4:
				if last := replay("replay", l); last != next-1 {
					t.Fatalf("replay ended at %d of %d", last, next-1)
				}
				safe = next - 1
			case 5:
				if err := l.Reset(); err != nil {
					t.Fatal(err)
				}
				first = next
			case 6:
				if err := l.TrimTo(uint64(arg) % next); err != nil {
					t.Fatal(err)
				}
				first = l.segs[0].base
			case 7: // a record of several segments' worth: it rotates
				put(arg%2 == 0, arg, 300+int(arg)*8)
			case 8:
				// kill -9: the staged bytes die with the process, the file
				// keeps what was written to it.
				cur.Close()
				l.active.Close()
				if l, err = Open(dir, opts); err != nil {
					t.Fatalf("open after the crash: %v", err)
				}
				if tb := l.Stats().TruncatedBytes; tb != 0 {
					t.Fatalf("%d bytes of torn tail after a crash between writes", tb)
				}
				last := replay("after the crash", l)
				if last < safe || last >= next {
					t.Fatalf("the crash kept positions up to %d; %d were safe, %d existed", last, safe, next-1)
				}
				for pos := last + 1; pos < next; pos++ {
					delete(all, pos)
				}
				next = max(last+1, first)
				safe = next - 1
				readPos = min(readPos, next)
				cur = l.NewCursor(readPos)
			}
		}
		cur.Close()
		if last := replay("at the end", l); last != next-1 {
			t.Fatalf("replay ended at %d of %d", last, next-1)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	})
}
