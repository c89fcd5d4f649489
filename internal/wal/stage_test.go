package wal

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// segmentFiles reads every segment of a log directory, by file name.
func segmentFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(name)] = b
	}
	return out
}

// TestStageLeavesTheSameJournal: staging changes when bytes reach the
// segment, not which bytes or which segment. One seeded record sequence
// — all three kinds, bodies from the smallest to exactly MaxRecordBody,
// a segment size small enough that it rotates every few records and
// that the largest records sit alone in theirs — is written once record
// by record through Append and once through Stage with a Sync at random
// points: same positions, same segment names, same bytes.
func TestStageLeavesTheSameJournal(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const overhead = 5 // kind, epoch 1, name length, "s", seq < 128
	recs := []Record{
		{Kind: KindData, Sensor: "s", Epoch: 1, Seq: 1, Payload: make([]byte, MaxRecordBody-overhead)},
		{Kind: KindCheckpoint},
	}
	for i := 0; i < 600; i++ {
		r := Record{Kind: Kind(1 + rng.Intn(3)), Sensor: "sensor-" + string(rune('a'+rng.Intn(5))), Epoch: rng.Uint64(), Seq: rng.Uint64()}
		switch n := rng.Intn(20); {
		case n == 0:
			r.Payload = make([]byte, rng.Intn(MaxRecordBody-300))
		case n < 16:
			r.Payload = make([]byte, rng.Intn(600))
		}
		rng.Read(r.Payload)
		recs = append(recs, r)
	}
	tooLarge := Record{Kind: KindData, Sensor: "s", Epoch: 1, Seq: 1, Payload: make([]byte, MaxRecordBody-overhead+1)}

	write := func(stage bool) (string, []uint64) {
		dir := t.TempDir()
		l, err := Open(dir, Options{SegmentBytes: 4096})
		if err != nil {
			t.Fatal(err)
		}
		put := l.Append
		if stage {
			put = l.Stage
		}
		var pos []uint64
		for i, r := range recs {
			p, err := put(r)
			if err != nil {
				t.Fatalf("record %d: %v", i, err)
			}
			pos = append(pos, p)
			if stage && rng.Intn(9) == 0 {
				if err := l.Sync(); err != nil {
					t.Fatal(err)
				}
			}
			if i%50 == 0 {
				// A refused record leaves no trace, staged or not.
				if _, err := put(tooLarge); !errors.Is(err, ErrRecordTooLarge) {
					t.Fatalf("oversized record: %v", err)
				}
			}
		}
		if st := l.Stats(); stage == (st.Writes >= st.Appends) {
			t.Errorf("stage=%v: %d writes for %d records", stage, st.Writes, st.Appends)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		return dir, pos
	}
	appendDir, appendPos := write(false)
	stageDir, stagePos := write(true)
	for i := range appendPos {
		if appendPos[i] != stagePos[i] {
			t.Fatalf("record %d: position %d appended, %d staged", i, appendPos[i], stagePos[i])
		}
	}
	want, got := segmentFiles(t, appendDir), segmentFiles(t, stageDir)
	if len(want) < 50 || len(got) != len(want) {
		t.Fatalf("%d segments appended, %d staged; want the same number, at least 50", len(want), len(got))
	}
	for name, b := range want {
		if !bytes.Equal(got[name], b) {
			t.Errorf("segment %s: %d bytes appended, %d staged, or different ones", name, len(b), len(got[name]))
		}
	}
}

// TestTornFlushIsCutBack: a failed or short write must not leave part
// of a record in front of what is flushed next — Open truncates at the
// first bad record, so everything behind it would be lost at the next
// recovery, synced or not. The file is cut back to what it held, the
// records of the failed flush stay staged and go out with the next one.
func TestTornFlushIsCutBack(t *testing.T) {
	for _, stage := range []bool{false, true} {
		dir := t.TempDir()
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		put := l.Append
		if stage {
			put = l.Stage
		}
		appendN(t, l, 3)
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		whole := l.Size()
		torn := 0
		l.write = func(f *os.File, b []byte) (int, error) {
			if torn++; torn == 1 {
				f.Write(b[:len(b)/2])
				return len(b) / 2, io.ErrShortWrite
			}
			return f.Write(b)
		}
		// Record 4 is in the flush that tears: Append reports it at once,
		// Stage at the Sync.
		_, err = put(testRecord(3))
		if stage && err == nil {
			err = l.Sync()
		}
		if !errors.Is(err, io.ErrShortWrite) {
			t.Fatalf("stage=%v: torn flush reported as %v", stage, err)
		}
		if fi, err := os.Stat(filepath.Join(dir, segName(1))); err != nil || fi.Size() != whole {
			t.Fatalf("stage=%v: segment is %d bytes after the torn flush (%v), want the %d it held before", stage, fi.Size(), err, whole)
		}
		for i := 4; i < 7; i++ {
			if _, err := put(testRecord(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Sync(); err != nil {
			t.Fatalf("stage=%v: sync after the torn flush: %v", stage, err)
		}
		l.active.Close() // kill -9: no Close, nothing more reaches the file

		l2, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		st := l2.Stats()
		pos, recs := collect(t, l2)
		if len(recs) != 7 || st.TruncatedBytes != 0 {
			t.Fatalf("stage=%v: %d records recovered, %d bytes truncated; want all 7 that were synced and a clean tail", stage, len(recs), st.TruncatedBytes)
		}
		for i, r := range recs {
			if pos[i] != uint64(i+1) || r.Seq != uint64(i+1) {
				t.Errorf("stage=%v: record %d recovered at position %d with seq %d", stage, i+1, pos[i], r.Seq)
			}
		}
		l2.Close()
	}
}

// TestUncuttableTearBreaksTheLog: when the torn write cannot be cut back
// either, nothing may be flushed behind it. Every later call returns
// that first error, and the records synced before it are what a reopen
// finds.
func TestUncuttableTearBreaksTheLog(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	cur := l.NewCursor(4)
	defer cur.Close()
	l.write = func(f *os.File, b []byte) (int, error) {
		f.Close() // the write fails, and so will the truncate
		return f.Write(b)
	}
	_, first := l.Append(testRecord(3))
	if first == nil {
		t.Fatal("append through a closed segment succeeded")
	}
	l.write = (*os.File).Write
	_, appendErr := l.Append(testRecord(4))
	_, stageErr := l.Stage(testRecord(4))
	_, _, _, nextErr := cur.Next()
	for name, err := range map[string]error{"Append": appendErr, "Stage": stageErr, "Sync": l.Sync(), "Next": nextErr, "Close": l.Close()} {
		if err != first {
			t.Errorf("%s on a broken log: %v, want the first error (%v)", name, err, first)
		}
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if _, recs := collect(t, l2); len(recs) != 3 {
		t.Errorf("%d records after the break, want the 3 synced before it", len(recs))
	}
}

// countingReaderAt counts the preads a cursor makes.
type countingReaderAt struct {
	io.ReaderAt
	n *int
}

func (r countingReaderAt) ReadAt(b []byte, off int64) (int, error) {
	*r.n++
	return r.ReaderAt.ReadAt(b, off)
}

// TestCursorReadsAWindow: a cursor reads its segment a window at a time
// — not a header and a body per record, and not a header per record on
// the way to a start inside the segment — and a record larger than the
// window still comes out whole.
func TestCursorReadsAWindow(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const n = 1000
	payload := make([]byte, 240) // a collector record is ≈ 265 bytes
	for i := 0; i < n; i++ {
		rec := Record{Kind: KindData, Sensor: "spiller", Epoch: 3, Seq: uint64(i + 1), Payload: payload}
		if i == n/2 {
			rec.Payload = bytes.Repeat([]byte{7}, 2*cursorWindow)
		}
		if _, err := l.Stage(rec); err != nil {
			t.Fatal(err)
		}
	}
	for _, start := range []uint64{1, 900} {
		reads := 0
		cur := l.NewCursor(start)
		cur.wrap = func(r io.ReaderAt) io.ReaderAt { return countingReaderAt{r, &reads} }
		for want := start; want <= n; want++ {
			pos, rec, ok, err := cur.Next()
			if err != nil || !ok || pos != want || rec.Seq != want {
				t.Fatalf("cursor from %d: record %d came back as (%d, seq %d, %v, %v)", start, want, pos, rec.Seq, ok, err)
			}
			if want == n/2+1 && (len(rec.Payload) != 2*cursorWindow || rec.Payload[len(rec.Payload)-1] != 7) {
				t.Fatalf("the record larger than the window came back with %d bytes", len(rec.Payload))
			}
		}
		if _, _, ok, err := cur.Next(); ok || err != nil {
			t.Fatalf("cursor from %d: past the end: ok=%v err=%v", start, ok, err)
		}
		cur.Close()
		// ≈ 390 KB in 64 KiB windows, one more for the record that needs
		// its own; it was 2 preads per record read and 1 per record
		// skipped.
		t.Logf("cursor from %d: %d ReadAt calls for %d records read, %d skipped", start, reads, n+1-int(start), start-1)
		if reads > 10 {
			t.Errorf("cursor from %d: %d ReadAt calls for %d records", start, reads, n)
		}
	}
}

// TestCursorSharesTheSensorName: a cursor reading one sensor's records
// makes no string per record. The spill tailer reads most of a busy
// collector's transactions back this way, and a string each made its
// allocation count follow how much of a run happened to spill.
func TestCursorSharesTheSensorName(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const n = 2000
	payload := make([]byte, 240)
	for i := 0; i < n; i++ {
		if _, err := l.Stage(Record{Kind: KindData, Sensor: "spiller", Epoch: 3, Seq: uint64(i + 1), Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	cur := l.NewCursor(1)
	defer cur.Close()
	next := func() {
		if _, rec, ok, err := cur.Next(); !ok || err != nil || rec.Sensor != "spiller" {
			t.Fatalf("Next = (%q, %v, %v)", rec.Sensor, ok, err)
		}
	}
	next() // opens the segment and sizes the read buffer
	if allocs := testing.AllocsPerRun(n/2, next); allocs != 0 {
		t.Errorf("Cursor.Next: %v allocations per record of one sensor, want 0", allocs)
	}
}

// TestCursorKeepsEachSensorName: records of sensors that alternate,
// repeat and share prefixes come back, through a cursor and through
// Replay, each with exactly the name it was written with.
func TestCursorKeepsEachSensorName(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	names := []string{"a", "b", "a", "a", "ab", "b", "", "b", "ba", "ba", "a"}
	for i, name := range names {
		if _, err := l.Append(Record{Kind: KindData, Sensor: name, Seq: uint64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	cur := l.NewCursor(1)
	defer cur.Close()
	for i, want := range names {
		if _, rec, ok, err := cur.Next(); !ok || err != nil || rec.Sensor != want {
			t.Fatalf("cursor record %d: sensor %q (%v, %v), want %q", i+1, rec.Sensor, ok, err, want)
		}
	}
	_, recs := collect(t, l)
	for i, want := range names {
		if recs[i].Sensor != want {
			t.Fatalf("replayed record %d: sensor %q, want %q", i+1, recs[i].Sensor, want)
		}
	}
}
