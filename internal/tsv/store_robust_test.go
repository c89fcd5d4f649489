package tsv

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// robustSnap builds a minimal valid snapshot.
func robustSnap(agg string, level Level, start int64, key string, v float64) *Snapshot {
	return &Snapshot{
		Aggregation: agg,
		Level:       level,
		Start:       start,
		Columns:     []string{"hits"},
		Kinds:       []Kind{Counter},
		Rows:        []Row{{Key: key, Values: []float64{v}}},
		TotalBefore: 10,
		TotalAfter:  9,
		Windows:     1,
	}
}

func TestNewStoreReapsOrphanedTempFiles(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{".tmp-123", ".tmp-crashed"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("half-written"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	keep := filepath.Join(dir, "srvip-min-0.tsv")
	if err := os.WriteFile(keep, []byte("data"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewStore(dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Errorf("orphaned temp file survived NewStore: %s", e.Name())
		}
	}
	if _, err := os.Stat(keep); err != nil {
		t.Errorf("committed file deleted by NewStore: %v", err)
	}
}

func TestGetReturnsTypedCorruptError(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(robustSnap("srvip", Minutely, 0, "a", 1)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "srvip-min-0.tsv")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"garbage":            []byte("not a snapshot at all\n"),
		"truncated mid-line": data[:len(data)/2],
		"missing trailer":    data[:strings.LastIndex(string(data), "#stats")],
	}
	for name, corrupt := range cases {
		if err := os.WriteFile(path, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := st.Get("srvip", Minutely, 0)
		if err == nil {
			t.Fatalf("%s: corrupt file accepted", name)
		}
		if !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("%s: err = %v, want ErrCorruptSnapshot", name, err)
		}
		var ce *CorruptError
		if !errors.As(err, &ce) || ce.Path != path {
			t.Fatalf("%s: err = %#v, want *CorruptError with path", name, err)
		}
	}

	// A missing file is NOT corrupt — callers distinguish the two.
	os.Remove(path)
	if _, err := st.Get("srvip", Minutely, 0); errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("missing file misreported as corrupt: %v", err)
	}
}

func TestCascadeSkipsCorruptFilesWithAccounting(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Ten minutely files fill one decaminutely window; corrupt two.
	for i := int64(0); i < 10; i++ {
		if err := st.Put(robustSnap("srvip", Minutely, i*60, "a", 6)); err != nil {
			t.Fatal(err)
		}
	}
	for _, start := range []int64{120, 300} {
		path := filepath.Join(dir, st.FileName(&Snapshot{Aggregation: "srvip", Level: Minutely, Start: start}))
		if err := os.WriteFile(path, []byte("#key\thits\nbroken"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.CascadeAll([]string{"srvip"}, 600); err != nil {
		t.Fatalf("cascade failed on corrupt input: %v", err)
	}
	if got := st.CorruptSkipped(); got != 2 {
		t.Errorf("CorruptSkipped = %d, want 2", got)
	}
	up, err := st.Get("srvip", Decaminutely, 0)
	if err != nil {
		t.Fatalf("upper aggregate missing: %v", err)
	}
	// 8 parsable windows of 6 hits averaged over 8 windows = 6.
	if got := up.Rows[0].Values[0]; got != 6 {
		t.Errorf("aggregated hits = %v, want 6", got)
	}
	if up.Windows != 8 {
		t.Errorf("windows = %d, want 8 (two corrupt inputs skipped)", up.Windows)
	}
}

func TestCascadeAllCorruptGroupIsSkippedEntirely(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		path := filepath.Join(dir, st.FileName(&Snapshot{Aggregation: "srvip", Level: Minutely, Start: i * 60}))
		if err := os.WriteFile(path, []byte("junk\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.CascadeAll([]string{"srvip"}, 600); err != nil {
		t.Fatalf("cascade failed on all-corrupt group: %v", err)
	}
	if got := st.CorruptSkipped(); got != 10 {
		t.Errorf("CorruptSkipped = %d, want 10", got)
	}
	if _, err := st.Get("srvip", Decaminutely, 0); err == nil {
		t.Error("aggregate produced from zero parsable inputs")
	}
	// The window never gets a file; a later pass does not read its
	// inputs again, and counts nothing twice.
	reads := st.ReadCalls()
	if err := st.CascadeAll([]string{"srvip"}, 1200); err != nil {
		t.Fatal(err)
	}
	if got := st.CorruptSkipped(); got != 10 {
		t.Errorf("second pass: CorruptSkipped = %d, want 10", got)
	}
	if got := st.ReadCalls(); got != reads {
		t.Errorf("second pass read %d files, want 0", got-reads)
	}
}

// failEveryWriter fails every write — the crudest chaos writer, used
// here without importing the chaos package (tsv must stay generic).
type failEveryWriter struct{ w io.Writer }

var errBoom = errors.New("boom")

func (f *failEveryWriter) Write(p []byte) (int, error) { return 0, errBoom }

func TestPutWriteFailureLeavesNoFiles(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.WrapWriter = func(w io.Writer) io.Writer { return &failEveryWriter{w: w} }
	if err := st.Put(robustSnap("srvip", Minutely, 0, "a", 1)); !errors.Is(err, errBoom) {
		t.Fatalf("Put err = %v, want errBoom", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("failed Put left %d files behind", len(entries))
	}
}

// shortWriter writes half of every buffer and reports success for it.
type shortWriter struct{ w io.Writer }

func (s *shortWriter) Write(p []byte) (int, error) {
	if len(p) <= 1 {
		return s.w.Write(p)
	}
	n, err := s.w.Write(p[:len(p)/2])
	if err != nil {
		return n, err
	}
	return n, nil
}

func TestPutShortWriteIsSurfacedNotCommitted(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.WrapWriter = func(w io.Writer) io.Writer { return &shortWriter{w: w} }
	if err := st.Put(robustSnap("srvip", Minutely, 0, "a", 1)); err == nil {
		t.Fatal("short write committed as success")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("short-write Put left %d files behind", len(entries))
	}
}

func TestPutFsyncOption(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.FsyncOnPut = true
	if err := st.Put(robustSnap("srvip", Minutely, 0, "a", 1)); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get("srvip", Minutely, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows[0].Key != "a" {
		t.Fatalf("round-trip mismatch: %+v", got.Rows)
	}
}

// TestTSVKindCountIsCorrupt: a TSV file whose #kind line does not give
// exactly one kind per column — short, missing or long — is corrupt. A
// short or missing one used to be accepted, and folding the file then
// indexed past its kinds, so a query over it panicked and so did a
// cascade, on a worker goroutine. Both now skip the file and count it.
func TestTSVKindCountIsCorrupt(t *testing.T) {
	for name, kinds := range map[string]string{
		"short":   "#kind\tc\n",
		"missing": "",
		"long":    "#kind\tc\tc\tg\n",
	} {
		t.Run(name, func(t *testing.T) {
			st, err := NewStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			for i := int64(0); i < 10; i++ {
				s := robustSnap("srvip", Minutely, i*60, "a", 6)
				s.Columns, s.Kinds = []string{"hits", "nxd"}, []Kind{Counter, Counter}
				s.Rows[0].Values = []float64{6, 2}
				if err := st.Put(s); err != nil {
					t.Fatal(err)
				}
			}
			bad := "#key\thits\tnxd\n" + kinds + "a\t6\t2\n#stats\ttotal_before=10\ttotal_after=9\twindows=1\n"
			path := filepath.Join(st.Dir(), st.FileName(&Snapshot{Aggregation: "srvip", Level: Minutely, Start: 0}))
			if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
				t.Fatal(err)
			}
			res, err := RunQuery(st, Query{Agg: "srvip", Level: Minutely})
			if err != nil {
				t.Fatal(err)
			}
			if res.Files != 9 || res.CorruptSkipped != 1 || res.From != 60 {
				t.Fatalf("query: files=%d corrupt=%d from=%d, want 9, 1, 60", res.Files, res.CorruptSkipped, res.From)
			}
			if err := st.CascadeAll([]string{"srvip"}, 600); err != nil {
				t.Fatal(err)
			}
			if got := st.CorruptSkipped(); got != 1 {
				t.Fatalf("CorruptSkipped = %d, want 1", got)
			}
			up, err := st.Get("srvip", Decaminutely, 0)
			if err != nil {
				t.Fatal(err)
			}
			if up.Windows != 9 || up.Rows[0].Values[0] != 6 {
				t.Fatalf("upper window: windows=%d hits=%v, want 9 and 6", up.Windows, up.Rows[0].Values[0])
			}
			if _, err := st.Get("srvip", Minutely, 0); !errors.Is(err, ErrCorruptSnapshot) {
				t.Fatalf("Get: %v, want a corrupt-snapshot error", err)
			}
		})
	}
}
