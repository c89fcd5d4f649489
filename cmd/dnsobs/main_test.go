package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dnsobservatory/internal/metrics"
	"dnsobservatory/internal/observatory"
	"dnsobservatory/internal/sie"
	"dnsobservatory/internal/simnet"
	"dnsobservatory/internal/transport"
	"dnsobservatory/internal/tsv"
	"dnsobservatory/internal/wal"
)

// syncBuffer is a stderr that run's goroutines may share.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// simulate runs a small simulation of the given length and returns its
// transactions, in emission order.
func simulate(t *testing.T, seconds, qps float64) []sie.Transaction {
	t.Helper()
	cfg := simnet.DefaultConfig()
	cfg.Duration, cfg.QPS, cfg.Resolvers, cfg.SLDs = seconds, qps, 4, 50
	var txs []sie.Transaction
	simnet.New(cfg).Run(func(tx *sie.Transaction) {
		var c sie.Transaction
		if err := c.Unmarshal(tx.Append(nil)); err != nil {
			t.Fatal(err)
		}
		txs = append(txs, c)
	})
	if len(txs) == 0 {
		t.Fatal("empty simulation")
	}
	return txs
}

// writeStream writes txs as a framed stream file.
func writeStream(t *testing.T, path string, txs []sie.Transaction) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriter(f)
	w := sie.NewWriter(bw)
	for i := range txs {
		if err := w.Write(&txs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// readDir returns every file under dir by name.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = b
	}
	return files
}

// minuteOf is the start, in Unix seconds, of t's minute window: the name
// dnsobs gives the window that holds a transaction of time t.
func minuteOf(t time.Time) int64 { return t.Unix() - t.Unix()%60 }

// firstAt returns the index of the first of txs at or after Unix second
// start. dnsobs opens a window at its first transaction, so every
// transaction before that one is held by an earlier window.
func firstAt(txs []sie.Transaction, start int64) int {
	for i := range txs {
		if txs[i].QueryTime.Unix() >= start {
			return i
		}
	}
	return len(txs)
}

// runObs runs dnsobs to completion with args and fails the test on error.
func runObs(t *testing.T, args ...string) string {
	t.Helper()
	var stderr syncBuffer
	if err := run(context.Background(), append([]string{"-report", "0"}, args...), nil, &stderr); err != nil {
		t.Fatalf("run %v: %v\n%s", args, err, stderr.String())
	}
	return stderr.String()
}

// TestRunMatchesLibrary (golden): -i through run leaves a store byte-
// identical to the library path over the same stream — reader,
// summarizer, inline engine, Put, Close, one cascade at the end — so
// the per-window cascade and retention leave what the parent's
// end-of-stream cascade left.
func TestRunMatchesLibrary(t *testing.T) {
	dir := t.TempDir()
	stream := filepath.Join(dir, "s.sie")
	writeStream(t, stream, simulate(t, 1260, 4))
	runObs(t, "-i", stream, "-dir", filepath.Join(dir, "run"), "-k", "0.01")

	store, err := tsv.NewStore(filepath.Join(dir, "lib"))
	if err != nil {
		t.Fatal(err)
	}
	aggs := observatory.StandardAggregations(0.01)
	var names []string
	for _, a := range aggs {
		names = append(names, a.Name)
	}
	last := int64(-1)
	pipe := observatory.New(observatory.DefaultConfig(), aggs, func(s *tsv.Snapshot) {
		if err := store.Put(s); err != nil {
			t.Error(err)
		}
		last = s.Start
	})
	f, err := os.Open(stream)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r := sie.NewReader(f)
	summarizer := sie.Summarizer{KeepUnparsableResponses: true}
	var tx sie.Transaction
	var sum sie.Summary
	var t0 int64
	for r.Read(&tx) == nil {
		if tx.QueryTime.IsZero() || summarizer.Summarize(&tx, &sum) != nil {
			continue
		}
		if t0 == 0 {
			t0 = minuteOf(tx.QueryTime)
		}
		pipe.Ingest(&sum, float64(tx.QueryTime.UnixNano())/1e9)
	}
	pipe.Close()
	if err := store.CascadeAll(names, last+60); err != nil {
		t.Fatal(err)
	}

	sameDir := func(run string) {
		t.Helper()
		got, want := readDir(t, filepath.Join(dir, run)), readDir(t, filepath.Join(dir, "lib"))
		if len(got) != len(want) {
			t.Errorf("%s: run wrote %d files, the library path %d", run, len(got), len(want))
		}
		for name, b := range want {
			if !bytes.Equal(got[name], b) {
				t.Errorf("%s: %s differs from the library path", run, name)
			}
		}
	}
	second := t0 - t0%600 + 600
	if _, err := os.Stat(filepath.Join(dir, "lib", fmt.Sprintf("qtype-10min-%d.tsv", second))); err != nil {
		t.Fatalf("stream too short to cascade twice: %v", err)
	}
	sameDir("run")

	// Retention applied per window ends where one pass at the end does.
	runObs(t, "-i", stream, "-dir", filepath.Join(dir, "retain"), "-k", "0.01", "-retain-min", "3")
	store.Retain[tsv.Minutely] = 3
	for _, name := range names {
		if err := store.Retention(name); err != nil {
			t.Fatal(err)
		}
	}
	sameDir("retain")
}

// TestRunShardedMatchesSerial: the sharded engine with detection writes
// the serial engine's qtype, rcode and detect_* files byte for byte.
func TestRunShardedMatchesSerial(t *testing.T) {
	dir := t.TempDir()
	stream := filepath.Join(dir, "s.sie")
	writeStream(t, stream, simulate(t, 180, 20))
	runObs(t, "-i", stream, "-dir", filepath.Join(dir, "serial"), "-k", "0.01", "-detect")
	out := runObs(t, "-i", stream, "-dir", filepath.Join(dir, "sharded"), "-k", "0.01", "-detect", "-workers", "2", "-shards", "4")
	if !strings.Contains(out, "4 shards, 2 workers") {
		t.Fatalf("not the sharded engine: %s", out)
	}
	serial, sharded := readDir(t, filepath.Join(dir, "serial")), readDir(t, filepath.Join(dir, "sharded"))
	compared := 0
	for name, b := range serial {
		if !strings.HasPrefix(name, "qtype-") && !strings.HasPrefix(name, "rcode-") && !strings.HasPrefix(name, "detect_") {
			continue
		}
		compared++
		if !bytes.Equal(sharded[name], b) {
			t.Errorf("%s: sharded differs from serial", name)
		}
	}
	if compared < 12 {
		t.Fatalf("compared only %d files", compared)
	}
}

// collect starts run -listen on a unix socket in dir with extra flags
// and returns the socket address and a function that cancels run and
// returns its error.
func collect(t *testing.T, dir string, extra ...string) (addr string, stop func() error) {
	t.Helper()
	addr = "unix:" + filepath.Join(dir, "s")
	ctx, cancel := context.WithCancel(context.Background())
	var stderr syncBuffer
	done := make(chan error, 1)
	args := append([]string{"-report", "0", "-listen", addr, "-dir", filepath.Join(dir, "obs"), "-k", "0.01"}, extra...)
	go func() { done <- run(ctx, args, nil, &stderr) }()
	t.Cleanup(cancel)
	return addr, func() error {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Logf("dnsobs stderr:\n%s", stderr.String())
			}
			return err
		case <-time.After(30 * time.Second):
			t.Fatal("run did not return after cancel")
			return nil
		}
	}
}

// send streams txs through a sensor and returns once every one is
// acknowledged.
func send(t *testing.T, addr, wal string, txs []sie.Transaction) {
	t.Helper()
	s := transport.NewSensor(transport.SensorConfig{Addr: addr, Name: "edge-1", WALDir: wal})
	for i := range txs {
		if err := s.Write(&txs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// waitFile waits for path to exist.
func waitFile(t *testing.T, path string) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		if _, err := os.Stat(path); err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no %s while the collector runs", filepath.Base(path))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunCascadesLive: a listening collector cascades each window as
// the next one opens — the 10-minute file of the first ten minutes is
// on disk while run is still serving, not only after it stops.
func TestRunCascadesLive(t *testing.T) {
	dir := t.TempDir()
	addr, stop := collect(t, dir)
	txs := simulate(t, 780, 1)
	send(t, addr, "", txs)
	t0 := minuteOf(txs[0].QueryTime)
	waitFile(t, filepath.Join(dir, "obs", fmt.Sprintf("qtype-10min-%d.tsv", t0-t0%600)))
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

// engines are the two engines dnsobs runs, by the flags that pick them.
var engines = []struct {
	name  string
	flags []string
}{
	{"serial", nil},
	{"sharded", []string{"-shards", "4", "-workers", "2"}},
}

// checkpointed opens the journal in walDir and returns how many of the
// transactions in it its checkpoint covers and how many a restart on it
// replays.
func checkpointed(t *testing.T, walDir string) (covered, replay int) {
	t.Helper()
	log, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	ckpt := log.Checkpointed()
	err = log.Replay(func(pos uint64, r wal.Record) error {
		if r.Kind == wal.KindData && pos <= ckpt {
			covered++
		} else if r.Kind == wal.KindData {
			replay++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return covered, replay
}

// copyDir copies the files of dir into a new directory: the image of a
// journal whose writer is still running, as a crash would leave it.
func copyDir(t *testing.T, dir string) string {
	t.Helper()
	out := t.TempDir()
	for name, b := range readDir(t, dir) {
		if err := os.WriteFile(filepath.Join(out, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// journal leaves txs in a collector journal in walDir, acknowledged and
// never consumed: a dnsobs started on it replays them all.
func journal(t *testing.T, walDir string, txs []sie.Transaction) {
	t.Helper()
	coll := transport.NewCollector(transport.CollectorConfig{})
	if err := coll.OpenWAL(walDir, wal.Options{}); err != nil {
		t.Fatal(err)
	}
	addr := "unix:" + filepath.Join(t.TempDir(), "j")
	ln, err := transport.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	go coll.Serve(ln)
	send(t, addr, "", txs)
	coll.Close()
	if err := coll.CloseWAL(); err != nil {
		t.Fatal(err)
	}
}

// TestRunShutdownCheckpoints: cancelling a -wal collector after N
// acknowledged transactions returns nil with the final (partial) window
// on disk, and the journal it leaves is checkpointed through exactly
// those N — a restart replays nothing. The snapshots the checkpoints
// confirm were fsynced before the journal let go of their input.
func TestRunShutdownCheckpoints(t *testing.T) {
	txs := simulate(t, 150, 8)
	// Within the collector's queue, so nothing spills past the drain.
	if len(txs) >= 4096 {
		t.Fatalf("%d transactions overflow the ingest queue", len(txs))
	}
	t0 := minuteOf(txs[0].QueryTime)
	var lastWindow int64
	for _, tx := range txs {
		lastWindow = max(lastWindow, minuteOf(tx.QueryTime))
	}
	if lastWindow-t0 < 120 {
		t.Fatalf("stream spans %d s, want several windows", lastWindow-t0)
	}
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			dir := t.TempDir()
			walDir := filepath.Join(dir, "wal")
			addr, stop := collect(t, dir, append([]string{"-wal", walDir}, e.flags...)...)
			send(t, addr, "", txs)
			if err := stop(); err != nil {
				t.Fatal(err)
			}
			if n := metrics.Default().SumCounter("dnsobs_store_fsyncs_total"); n == 0 {
				t.Fatal("-wal checkpointed the journal behind snapshots it never fsynced")
			}
			if _, err := os.Stat(filepath.Join(dir, "obs", fmt.Sprintf("qtype-min-%d.tsv", lastWindow))); err != nil {
				t.Fatalf("final window not on disk: %v", err)
			}
			if covered, replay := checkpointed(t, walDir); covered != len(txs) || replay != 0 {
				t.Fatalf("checkpoint covers %d transactions and leaves %d to replay; want %d and 0", covered, replay, len(txs))
			}
		})
	}
}

// TestRunCheckpointsPerWindow: once window k's first snapshot is on
// disk, the journal's checkpoint covers every transaction of the windows
// before k and none after, on either engine — so a crash replays window
// k, the open window and the queue, not the journal.
func TestRunCheckpointsPerWindow(t *testing.T) {
	txs := simulate(t, 240, 8)
	k := minuteOf(txs[0].QueryTime) + 120
	// Through 45 s of window k+1: its first transaction closes window k,
	// and the sharded engine's 256-transaction batch that holds it fills.
	sent := firstAt(txs, k+60+45)
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			dir := t.TempDir()
			walDir := filepath.Join(dir, "wal")
			addr, stop := collect(t, dir, append([]string{"-wal", walDir}, e.flags...)...)
			send(t, addr, "", txs[:sent])
			waitFile(t, filepath.Join(dir, "obs", fmt.Sprintf("qtype-min-%d.tsv", k)))
			covered, replay := checkpointed(t, copyDir(t, walDir))
			t.Logf("window k landed: the checkpoint covers %d of %d transactions, a restart replays %d", covered, sent, replay)
			if want := firstAt(txs, k); covered != want {
				t.Errorf("checkpoint covers %d transactions; the windows before k hold %d", covered, want)
			}
			if err := stop(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRunCheckpointsFailedPut: a window that fails to store keeps its
// transactions in the journal — the checkpoint covers only the windows
// stored before it — and run returns the error.
func TestRunCheckpointsFailedPut(t *testing.T) {
	txs := simulate(t, 210, 8)
	t0 := minuteOf(txs[0].QueryTime)
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			dir := t.TempDir()
			walDir := filepath.Join(dir, "wal")
			journal(t, walDir, txs)
			// A directory where minute 1's etld snapshot goes fails its Put.
			if err := os.MkdirAll(filepath.Join(dir, "obs", fmt.Sprintf("etld-min-%d.tsv", t0+60)), 0o755); err != nil {
				t.Fatal(err)
			}
			_, stop := collect(t, dir, append([]string{"-wal", walDir}, e.flags...)...)
			waitFile(t, filepath.Join(dir, "obs", fmt.Sprintf("srvip-min-%d.tsv", t0+60)))
			if err := stop(); err == nil {
				t.Fatal("run returned nil after a failed Put")
			}
			if covered, _ := checkpointed(t, walDir); covered != firstAt(txs, t0+60) {
				t.Fatalf("checkpoint covers %d transactions; the one window stored whole holds %d", covered, firstAt(txs, t0+60))
			}
		})
	}
}

// TestRunRestartKeepsArchive: a second run over a stream's later minutes,
// into the same -dir, writes those minutes under their own names and
// leaves the first run's earlier minutes byte for byte as they were.
func TestRunRestartKeepsArchive(t *testing.T) {
	dir := t.TempDir()
	txs := simulate(t, 360, 4)
	t0 := minuteOf(txs[0].QueryTime)
	all, later := filepath.Join(dir, "all.sie"), filepath.Join(dir, "later.sie")
	writeStream(t, all, txs)
	writeStream(t, later, txs[firstAt(txs, t0+180):])
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			obs := filepath.Join(t.TempDir(), "obs")
			runObs(t, append([]string{"-i", all, "-dir", obs, "-k", "0.01"}, e.flags...)...)
			first := readDir(t, obs)
			runObs(t, append([]string{"-i", later, "-dir", obs, "-k", "0.01"}, e.flags...)...)
			second := readDir(t, obs)
			kept := 0
			for name, b := range first {
				for m := t0; m < t0+180; m += 60 {
					if strings.HasSuffix(name, fmt.Sprintf("-min-%d.tsv", m)) {
						kept++
						if !bytes.Equal(second[name], b) {
							t.Errorf("%s: rewritten by the second run", name)
						}
					}
				}
			}
			if kept < 3*len(observatory.StandardAggregations(0.01)) {
				t.Fatalf("the first run wrote %d files of its first three minutes", kept)
			}
		})
	}
}

// TestRunFlagErrors: flag values that used to be ignored or to abort
// midway are errors from run, before anything is created under -dir.
func TestRunFlagErrors(t *testing.T) {
	dir := t.TempDir()
	stream := filepath.Join(dir, "s.sie")
	writeStream(t, stream, simulate(t, 5, 10))
	sock := "unix:" + filepath.Join(dir, "s")
	for _, args := range [][]string{
		{"-shards", "-1"},
		{"-workers", "-2"},
		{"-retain-min", "-1"},
		{"-store", "parquet"},
		{"-listen", sock, "-i", stream},
		{"-wal", filepath.Join(dir, "w")},
		{"-fleet", "A"},
		{"-peers", "A=h:1"},
		{"-absorb", filepath.Join(dir, "w")},
		{"-listen", sock, "-fleet", "A"},
		{"-listen", sock, "-peers", "A=h:1"},
		{"-listen", sock, "-absorb", filepath.Join(dir, "w")},
		{"-listen", sock, "-fleet", "C", "-peers", "A=h:1,B=h:2"},
		{"-listen", sock, "-fleet", "A", "-peers", "A=h:1,B"},
		{"-pprof"},
		{"-overload", "drop"},
		{"-no-such-flag"},
	} {
		out := filepath.Join(dir, "obs")
		var stderr syncBuffer
		args = append([]string{"-dir", out, "-report", "0"}, args...)
		if !strings.Contains(strings.Join(args, " "), "-listen") {
			args = append(args, "-i", stream)
		}
		if err := run(context.Background(), args, nil, &stderr); err == nil {
			t.Errorf("%v: accepted", args)
		}
		if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%v: -dir created before the error", args)
			os.RemoveAll(out)
		}
	}
}

// TestRunHTTPBusy: a -http address that cannot be listened on is an
// error from run, not a line in the log.
func TestRunHTTPBusy(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dir := t.TempDir()
	stream := filepath.Join(dir, "s.sie")
	writeStream(t, stream, simulate(t, 5, 10))
	var stderr syncBuffer
	err = run(context.Background(), []string{"-report", "0", "-i", stream, "-dir", filepath.Join(dir, "obs"), "-http", ln.Addr().String()}, nil, &stderr)
	if err == nil {
		t.Fatal("busy -http port accepted")
	}
}

// TestRunCancelStream: with -i - the stream is stdin, and a cancelled
// run still returns nil with the window it read flushed.
func TestRunCancelStream(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	w := sie.NewWriter(&buf)
	txs := simulate(t, 65, 10)
	for _, tx := range txs {
		if err := w.Write(&tx); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stderr syncBuffer
	if err := run(ctx, []string{"-report", "0", "-dir", dir}, &buf, &stderr); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("qtype-min-%d.tsv", minuteOf(txs[0].QueryTime)))); err != nil {
		t.Fatalf("final window not flushed: %v", err)
	}
}

// settled waits for the goroutine count to fall to at most n and fails
// the test, with every goroutine's stack, if it does not within 10 s.
func settled(t *testing.T, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > n; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines outlive run, %d were there before it:\n%s",
				runtime.NumGoroutine(), n, buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestRunErrorStopsEngine: a run that fails after the engine is built —
// a window that cannot be stored, noticed minutes before the stream
// ends, or an address that cannot be listened on — stops the worker
// shape's goroutines before it returns.
func TestRunErrorStopsEngine(t *testing.T) {
	dir := t.TempDir()
	txs := simulate(t, 600, 8)
	stream := filepath.Join(dir, "s.sie")
	writeStream(t, stream, txs)
	t0 := minuteOf(txs[0].QueryTime)
	obs := filepath.Join(dir, "obs")
	if err := os.MkdirAll(filepath.Join(obs, fmt.Sprintf("etld-min-%d.tsv", t0+60)), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		args []string
	}{
		{"put", []string{"-i", stream}},
		{"listen", []string{"-listen", "unix:" + filepath.Join(dir, "no", "such", "dir", "s")}},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			var stderr syncBuffer
			args := append([]string{"-report", "0", "-dir", obs, "-k", "0.01", "-workers", "2"}, c.args...)
			if err := run(context.Background(), args, nil, &stderr); err == nil {
				t.Fatalf("run %v returned nil", args)
			}
			settled(t, before)
		})
	}
}
