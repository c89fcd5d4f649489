package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// testRecord builds a distinguishable data record.
func testRecord(i int) Record {
	return Record{
		Kind:    KindData,
		Sensor:  "sensor-a",
		Epoch:   42,
		Seq:     uint64(i + 1),
		Payload: []byte(fmt.Sprintf("payload-%d", i)),
	}
}

// appendN appends n test records and returns their positions.
func appendN(t *testing.T, l *Log, n int) []uint64 {
	t.Helper()
	pos := make([]uint64, n)
	for i := 0; i < n; i++ {
		p, err := l.Append(testRecord(i))
		if err != nil {
			t.Fatal(err)
		}
		pos[i] = p
	}
	return pos
}

// collect replays the whole log into a slice (payloads copied).
func collect(t *testing.T, l *Log) (pos []uint64, recs []Record) {
	t.Helper()
	err := l.Replay(func(p uint64, r Record) error {
		r.Payload = append([]byte(nil), r.Payload...)
		pos = append(pos, p)
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pos, recs
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{Kind: KindData, Sensor: "s1", Epoch: 7, Seq: 1, Payload: []byte("tx-1")},
		{Kind: KindData, Sensor: "s1", Epoch: 7, Seq: 2, Payload: []byte{}},
		{Kind: KindAck, Sensor: "s1", Epoch: 7, Seq: 2},
		{Kind: KindCheckpoint, Seq: 3},
		{Kind: KindData, Sensor: "", Epoch: 0, Seq: 0, Payload: bytes.Repeat([]byte("x"), MaxRecordBody-64)},
	}
	for i, r := range want {
		p, err := l.Append(r)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if p != uint64(i+1) {
			t.Fatalf("append %d: pos %d, want %d", i, p, i+1)
		}
	}
	if got := l.LastPos(); got != uint64(len(want)) {
		t.Fatalf("LastPos = %d, want %d", got, len(want))
	}
	if got := l.Checkpointed(); got != 3 {
		t.Fatalf("Checkpointed = %d, want 3", got)
	}
	pos, recs := collect(t, l)
	if len(recs) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(want))
	}
	for i, r := range recs {
		if pos[i] != uint64(i+1) {
			t.Errorf("record %d: pos %d", i, pos[i])
		}
		w := want[i]
		if r.Kind != w.Kind || r.Sensor != w.Sensor || r.Epoch != w.Epoch || r.Seq != w.Seq ||
			!bytes.Equal(r.Payload, w.Payload) {
			t.Errorf("record %d: got %+v, want %+v", i, r, w)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Appends != uint64(len(want)) || st.Syncs == 0 {
		t.Errorf("stats = %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(testRecord(0)); !errors.Is(err, ErrClosed) {
		t.Errorf("append after close: %v", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrClosed) {
		t.Errorf("sync after close: %v", err)
	}
}

func TestRotationAndReopen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	appendN(t, l, n)
	if segs := l.Segments(); segs < 3 {
		t.Fatalf("expected rotation, got %d segments", segs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: everything recovered, positions continue.
	l2, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if st := l2.Stats(); st.Recovered != n {
		t.Fatalf("recovered %d records, want %d", st.Recovered, n)
	}
	pos, recs := collect(t, l2)
	if len(recs) != n || pos[0] != 1 || pos[n-1] != n {
		t.Fatalf("replay after reopen: %d records, pos [%d..%d]", len(recs), pos[0], pos[len(pos)-1])
	}
	p, err := l2.Append(testRecord(n))
	if err != nil {
		t.Fatal(err)
	}
	if p != n+1 {
		t.Fatalf("append after reopen at pos %d, want %d", p, n+1)
	}
}

func TestTruncatedTailRecovery(t *testing.T) {
	for _, cut := range []struct {
		name string
		want uint64 // records surviving recovery
		muck func(t *testing.T, path string)
	}{
		{"torn-record", 9, func(t *testing.T, path string) {
			fi, _ := os.Stat(path)
			if err := os.Truncate(path, fi.Size()-3); err != nil {
				t.Fatal(err)
			}
		}},
		{"flipped-byte", 9, func(t *testing.T, path string) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b[len(b)-1] ^= 0xff // corrupt the last record's payload: CRC fails
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		// Garbage after the last record: only the garbage goes.
		{"garbage-appended", 10, func(t *testing.T, path string) {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			f.Write([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
			f.Close()
		}},
	} {
		t.Run(cut.name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			appendN(t, l, 10)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
			cut.muck(t, segs[len(segs)-1])

			l2, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("recovery must succeed on a torn tail: %v", err)
			}
			defer l2.Close()
			st := l2.Stats()
			if st.TruncatedBytes == 0 {
				t.Error("no bytes reported truncated")
			}
			if st.Recovered != cut.want {
				t.Errorf("recovered %d records, want %d (tail dropped)", st.Recovered, cut.want)
			}
			_, recs := collect(t, l2)
			if uint64(len(recs)) != cut.want {
				t.Errorf("replay sees %d records, want %d", len(recs), cut.want)
			}
			// The log keeps working at the truncation point.
			if p, err := l2.Append(testRecord(9)); err != nil || p != cut.want+1 {
				t.Errorf("append after recovery: pos %d, err %v", p, err)
			}
		})
	}
}

func TestSealedSegmentCorruption(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 40)
	if l.Segments() < 3 {
		t.Fatal("need several segments")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	b, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff
	if err := os.WriteFile(segs[0], b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrBadSegment) {
		t.Fatalf("open over a corrupt sealed segment: %v, want ErrBadSegment", err)
	}

	// A missing middle segment breaks position continuity the same way.
	b[len(b)-1] ^= 0xff // restore the byte
	if err := os.WriteFile(segs[0], b, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(segs[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrBadSegment) {
		t.Fatalf("open over a segment gap: %v, want ErrBadSegment", err)
	}
}

func TestCursorTailsLiveAppends(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 5)

	cur := l.NewCursor(1)
	defer cur.Close()
	read := func(wantPos uint64, wantOK bool) Record {
		t.Helper()
		pos, rec, ok, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if ok != wantOK {
			t.Fatalf("ok = %v, want %v", ok, wantOK)
		}
		if ok && pos != wantPos {
			t.Fatalf("pos = %d, want %d", pos, wantPos)
		}
		return rec
	}
	for i := 1; i <= 5; i++ {
		rec := read(uint64(i), true)
		if rec.Seq != uint64(i) {
			t.Fatalf("record %d: seq %d", i, rec.Seq)
		}
	}
	read(0, false) // caught up

	// Appends continue across several rotations; the cursor follows.
	appendN(t, l, 30)
	for i := 6; i <= 35; i++ {
		read(uint64(i), true)
	}
	read(0, false)
	if cur.Pos() != 36 {
		t.Fatalf("cursor pos = %d, want 36", cur.Pos())
	}
}

func TestTrimToAndCursorSkip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 40)
	segsBefore := l.Segments()
	if err := l.TrimTo(30); err != nil {
		t.Fatal(err)
	}
	if l.Segments() >= segsBefore {
		t.Fatalf("trim removed nothing: %d -> %d segments", segsBefore, l.Segments())
	}
	retained, _ := collect(t, l)
	first := retained[0]
	if first <= 1 || first > 31 {
		t.Fatalf("first position after trim = %d", first)
	}
	if st := l.Stats(); st.Trims == 0 {
		t.Error("trims not counted")
	}
	// A cursor starting below the trimmed range skips to what remains.
	cur := l.NewCursor(1)
	defer cur.Close()
	pos, _, ok, err := cur.Next()
	if err != nil || !ok {
		t.Fatalf("next after trim: ok=%v err=%v", ok, err)
	}
	if pos != first {
		t.Fatalf("cursor resumed at %d, want %d", pos, first)
	}
	// The active segment never goes away, even when fully checkpointed.
	if err := l.TrimTo(1000); err != nil {
		t.Fatal(err)
	}
	if l.Segments() != 1 {
		t.Fatalf("active segment removed: %d segments", l.Segments())
	}
}

func TestResetKeepsPositionsMonotone(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 10)
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if _, recs := collect(t, l); len(recs) != 0 {
		t.Fatalf("reset left %d records", len(recs))
	}
	p, err := l.Append(testRecord(0))
	if err != nil {
		t.Fatal(err)
	}
	if p != 11 {
		t.Fatalf("append after reset at pos %d, want 11", p)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Monotone across a reopen too.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if p, err := l2.Append(testRecord(1)); err != nil || p != 12 {
		t.Fatalf("append after reopen at pos %d, err %v", p, err)
	}
}

func TestAppendLimits(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(Record{Kind: KindData, Payload: make([]byte, MaxRecordBody)}); !errors.Is(err, ErrRecordTooLarge) {
		t.Errorf("oversized payload: %v", err)
	}
	if _, err := l.Append(Record{Kind: KindData, Sensor: string(make([]byte, MaxSensorName+1))}); !errors.Is(err, ErrRecordTooLarge) {
		t.Errorf("oversized sensor name: %v", err)
	}
}

// TestCheckpointedSurvivesReopenAndTrim: the log knows its own highest
// checkpoint — from the scan Open makes anyway, and from Append — so a
// reader finds where to resume without a replay of its own, and
// trimming away the segment an older checkpoint record sits in moves
// nothing.
func TestCheckpointedSurvivesReopenAndTrim(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentBytes: 256}
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	// data 1..20, checkpoint(12) at 21, data 22..31, checkpoint(25) at
	// 32, data 33..37.
	for _, step := range []struct{ data, ckpt int }{{20, 12}, {10, 25}, {5, 0}} {
		appendN(t, l, step.data)
		if step.ckpt > 0 {
			if _, err := l.Append(Record{Kind: KindCheckpoint, Seq: uint64(step.ckpt)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	pending := func(l *Log) (n int) {
		t.Helper()
		pos, recs := collect(t, l)
		for i, r := range recs {
			if r.Kind == KindData && pos[i] > l.Checkpointed() {
				n++
			}
		}
		return n
	}
	const wantPending = 6 + 5 // data at 26..31 and at 33..37
	if got := l.Checkpointed(); got != 25 {
		t.Fatalf("Checkpointed after appends = %d, want 25", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	if l, err = Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := l.Checkpointed(); got != 25 || pending(l) != wantPending {
		t.Fatalf("after reopen: Checkpointed = %d, %d data records past it; want 25 and %d", got, pending(l), wantPending)
	}
	first, _ := collect(t, l)
	if err := l.TrimTo(25); err != nil {
		t.Fatal(err)
	}
	if kept, _ := collect(t, l); kept[0] <= 21 || kept[0] > 26 || first[0] != 1 {
		t.Fatalf("TrimTo(25) kept positions from %d (was %d): the first checkpoint record, at 21, should be gone", kept[0], first[0])
	}
	if got := l.Checkpointed(); got != 25 || pending(l) != wantPending {
		t.Fatalf("after trim: Checkpointed = %d, %d data records past it; want 25 and %d", got, pending(l), wantPending)
	}
}

func TestShortActiveHeaderRewritten(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err := os.WriteFile(segs[0], []byte("DOB"), 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("short header on the active segment must recover: %v", err)
	}
	defer l2.Close()
	if p, err := l2.Append(testRecord(0)); err != nil || p != 1 {
		t.Fatalf("append after header rewrite: pos %d, err %v", p, err)
	}
}
