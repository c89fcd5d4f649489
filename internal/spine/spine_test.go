package spine

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dnsobservatory/internal/detect"
	"dnsobservatory/internal/metrics"
	"dnsobservatory/internal/observatory"
	"dnsobservatory/internal/sie"
	"dnsobservatory/internal/simnet"
	"dnsobservatory/internal/tsv"
)

// shapes are the two engine shapes a spine builds.
var shapes = []struct {
	name string
	set  func(*Config)
}{
	{"inline", func(*Config) {}},
	{"sharded", func(c *Config) { c.Sharded, c.Shards, c.Workers = true, 4, 2 }},
}

// stream is a small simulated stream in emission order, with two
// transactions the spine must refuse in the middle of its second minute:
// one with no time, one whose query does not parse.
func stream(t *testing.T, seconds float64) []sie.Transaction {
	t.Helper()
	cfg := simnet.DefaultConfig()
	cfg.Duration, cfg.QPS, cfg.Resolvers, cfg.SLDs = seconds, 8, 4, 50
	var txs []sie.Transaction
	simnet.New(cfg).Run(func(tx *sie.Transaction) {
		var c sie.Transaction
		if err := c.Unmarshal(tx.Append(nil)); err != nil {
			t.Fatal(err)
		}
		txs = append(txs, c)
	})
	mid := firstAt(txs, minuteOf(txs[0].QueryTime)+90)
	noTime, garbled := txs[mid], txs[mid]
	noTime.QueryTime = time.Time{}
	garbled.QueryPacket = []byte{1, 2, 3}
	return append(txs[:mid:mid], append([]sie.Transaction{noTime, garbled}, txs[mid:]...)...)
}

// minuteOf is the start, in Unix seconds, of t's minute window.
func minuteOf(t time.Time) int64 { return t.Unix() - t.Unix()%60 }

// firstAt returns the index of the first of txs at or after Unix second
// start, skipping the ones with no time.
func firstAt(txs []sie.Transaction, start int64) int {
	for i := range txs {
		if !txs[i].QueryTime.IsZero() && txs[i].QueryTime.Unix() >= start {
			return i
		}
	}
	return len(txs)
}

// windows returns the minute windows txs fall in, in order.
func windows(txs []sie.Transaction) []int64 {
	var out []int64
	for i := range txs {
		if m := minuteOf(txs[i].QueryTime); !txs[i].QueryTime.IsZero() && (len(out) == 0 || m > out[len(out)-1]) {
			out = append(out, m)
		}
	}
	return out
}

// checkpoint is one Checkpoint call and what the store held at it.
type checkpoint struct {
	done         uint64
	stored       map[int64]int // minute window → aggregations stored
	puts, fsyncs uint64
}

// journal records every checkpoint with the store listing at that
// moment, and fails the call numbered fail (from 1; 0 never fails).
type journal struct {
	st    *tsv.Store
	aggs  []observatory.Aggregation
	fail  int
	calls []checkpoint
}

func (j *journal) Checkpoint(done uint64) error {
	c := checkpoint{done: done, stored: map[int64]int{}, puts: j.st.Puts(), fsyncs: j.st.Fsyncs()}
	for _, a := range j.aggs {
		starts, err := j.st.List(a.Name, tsv.Minutely)
		if err != nil {
			return err
		}
		for _, s := range starts {
			c.stored[s]++
		}
	}
	j.calls = append(j.calls, c)
	if len(j.calls) == j.fail {
		return errors.New("journal: checkpoint failed")
	}
	return nil
}

// open opens a spine of the given shape over a new store in dir with a
// recording journal.
func open(t *testing.T, dir string, set func(*Config), fail int) (*Spine, *journal) {
	t.Helper()
	st, err := tsv.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	aggs := observatory.StandardAggregations(0.01)
	j := &journal{st: st, aggs: aggs, fail: fail}
	cfg := Config{Store: st, Aggs: aggs, Engine: observatory.DefaultConfig(), Journal: j}
	set(&cfg)
	return Open(cfg), j
}

// ingest hands txs to sp at their own Unix time and returns the first
// error.
func ingest(sp *Spine, txs []sie.Transaction) error {
	for i := range txs {
		if err := sp.Ingest(&txs[i], float64(txs[i].QueryTime.UnixNano())/1e9); err != nil {
			return err
		}
	}
	return nil
}

// TestCheckpointsFollowStoredWindows: every checkpoint lets go of
// exactly the windows on disk, fsynced, and the last one of every
// transaction handed in; the refused ones take their numbers.
func TestCheckpointsFollowStoredWindows(t *testing.T) {
	txs := stream(t, 250)
	wins := windows(txs)
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			sp, j := open(t, t.TempDir(), shape.set, 0)
			if err := ingest(sp, txs); err != nil {
				t.Fatal(err)
			}
			sp.Reject()
			if err := sp.Close(); err != nil {
				t.Fatal(err)
			}
			if n, refused := sp.Counts(); n != uint64(len(txs)) || refused != 3 {
				t.Errorf("counted %d transactions, %d refused; want %d and 3", n, refused, len(txs))
			}
			if es := sp.Engine().Stats(); es.Rejected != 3 || es.Ingested != uint64(len(txs))+1 {
				t.Errorf("engine: ingested %d, rejected %d", es.Ingested, es.Rejected)
			}
			if len(j.calls) != len(wins)+1 {
				t.Fatalf("%d checkpoints over %d windows", len(j.calls), len(wins))
			}
			aggs := len(j.aggs)
			for i, c := range j.calls {
				if c.fsyncs != 2*c.puts {
					t.Errorf("checkpoint %d: %d puts, %d fsyncs: a window was not on stable storage", i, c.puts, c.fsyncs)
				}
				// Call i comes as window i opens; the last one, at Close,
				// after every window.
				want, next := uint64(len(txs)), int64(-1)
				if i < len(wins) {
					next = wins[i]
					want = uint64(firstAt(txs, next))
				}
				if c.done != want {
					t.Errorf("checkpoint %d covers %d transactions, want %d", i, c.done, want)
				}
				for _, w := range wins {
					if stored := c.stored[w]; (next < 0 || w < next) && stored != aggs {
						t.Errorf("checkpoint %d: window %d has %d of %d aggregations stored", i, w, stored, aggs)
					} else if w >= next && next >= 0 && stored != 0 {
						t.Errorf("checkpoint %d: window %d is stored before its checkpoint", i, w)
					}
				}
			}
		})
	}
}

// TestFailedCheckpointStopsCheckpoints: a checkpoint that fails is the
// last one made, and every window is still stored.
func TestFailedCheckpointStopsCheckpoints(t *testing.T) {
	txs := stream(t, 250)
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			sp, j := open(t, t.TempDir(), shape.set, 2)
			if err := ingest(sp, txs); err != nil {
				t.Fatal(err)
			}
			if err := sp.Close(); err != nil {
				t.Fatalf("a failed checkpoint failed the stream: %v", err)
			}
			if len(j.calls) != 2 {
				t.Errorf("%d checkpoints; the second failed and should have been the last", len(j.calls))
			}
			for _, w := range windows(txs) {
				starts, err := j.st.List("qtype", tsv.Minutely)
				if err != nil {
					t.Fatal(err)
				}
				if !contains(starts, w) {
					t.Errorf("window %d not stored after the failed checkpoint", w)
				}
			}
		})
	}
}

func contains(s []int64, v int64) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// TestFailedPutStops: a window that cannot be stored is the spine's
// error from then on; no later window is stored and no checkpoint moves
// past the windows stored before it.
func TestFailedPutStops(t *testing.T) {
	txs := stream(t, 250)
	w1 := windows(txs)[1]
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.MkdirAll(filepath.Join(dir, fmt.Sprintf("etld-min-%d.tsv", w1)), 0o755); err != nil {
				t.Fatal(err)
			}
			sp, j := open(t, dir, shape.set, 0)
			ingestErr := ingest(sp, txs)
			err := sp.Close()
			if err == nil {
				t.Fatal("Close returned nil after a failed Put")
			}
			if ingestErr != nil && ingestErr != err {
				t.Errorf("Ingest returned %v, Close %v", ingestErr, err)
			}
			if again := sp.Close(); again != err {
				t.Errorf("a second Close returned %v, want %v", again, err)
			}
			last := j.calls[len(j.calls)-1]
			if want := uint64(firstAt(txs, w1)); last.done != want {
				t.Errorf("the last checkpoint covers %d transactions; the window stored whole holds %d", last.done, want)
			}
			for _, name := range []string{"qtype", "srvip"} {
				starts, err := j.st.List(name, tsv.Minutely)
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range starts {
					if s > w1 {
						t.Errorf("%s window %d stored after the failed Put", name, s)
					}
				}
			}
		})
	}
}

// TestAbortStoresNothingMore: after Abort the open window is not stored
// and no checkpoint covers it, though the engine still emits every
// window (its flush histogram counts them); Close then returns the
// abort. (The worker shape may not
// have delivered the closed windows yet either, so they may go unstored
// too.)
func TestAbortStoresNothingMore(t *testing.T) {
	txs := stream(t, 250)
	w2 := windows(txs)[2]
	half := firstAt(txs, w2) + 10
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			sp, j := open(t, t.TempDir(), func(c *Config) {
				shape.set(c)
				c.Engine.Metrics = reg
			}, 0)
			if err := ingest(sp, txs[:half]); err != nil {
				t.Fatal(err)
			}
			sp.Abort()
			sp.Abort()
			if !errors.Is(sp.Close(), errAborted) {
				t.Error("Close after Abort did not return the abort")
			}
			for _, c := range j.calls {
				if c.done > uint64(firstAt(txs, w2)) {
					t.Errorf("a checkpoint covers %d transactions, past the windows closed before Abort", c.done)
				}
			}
			if n := reg.SumCounter(observatory.MetricFlush); n != 3 {
				t.Errorf("the engine emitted %d windows, want 3", n)
			}
			starts, err := j.st.List("qtype", tsv.Minutely)
			if err != nil {
				t.Fatal(err)
			}
			if contains(starts, w2) {
				t.Error("the window open at Abort was stored")
			}
		})
	}
}

// TestNoJournalNoFsync: without a journal the store keeps its own
// FsyncOnPut, and the detection windows cascade with the aggregations.
func TestNoJournalNoFsync(t *testing.T) {
	st, err := tsv.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := observatory.DefaultConfig()
	dc := detect.DefaultConfig()
	cfg.Detect = &dc
	txs := stream(t, 660)
	sp := Open(Config{Store: st, Aggs: observatory.StandardAggregations(0.01)[:1], Engine: cfg})
	if err := ingest(sp, txs); err != nil {
		t.Fatal(err)
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	if st.FsyncOnPut || st.Fsyncs() != 0 {
		t.Error("a spine without a journal fsynced its windows")
	}
	for _, name := range []string{"detect_esld", "detect_nod"} {
		if starts, err := st.List(name, tsv.Decaminutely); err != nil || len(starts) == 0 {
			t.Errorf("%s: no 10-minute window (%v)", name, err)
		}
	}
}

// TestReplayedWindowsAreNotStoredAgain is a restart: a first run stops
// once minute 3 is stored, and a second replays the stream from minute
// 3's first transaction — where a journal checkpointed by the first
// would start it — into the same store. The windows the store holds are
// the new engine's warm-up: every file the first run left is byte for
// byte what it was. A fresh engine's own minute 3 would have lost every
// object it saw for the first time (qname's went from 186 rows to 0).
func TestReplayedWindowsAreNotStoredAgain(t *testing.T) {
	txs := stream(t, 360)
	m3 := windows(txs)[3]
	for _, backend := range []string{tsv.BackendTSV, tsv.BackendColumnar} {
		for _, shape := range shapes {
			t.Run(backend+"/"+shape.name, func(t *testing.T) {
				dir := t.TempDir()
				run := func(txs []sie.Transaction) {
					st, err := tsv.NewStoreBackend(dir, backend)
					if err != nil {
						t.Fatal(err)
					}
					defer st.Close()
					cfg := Config{Store: st, Aggs: observatory.StandardAggregations(0.01), Engine: observatory.DefaultConfig()}
					shape.set(&cfg)
					sp := Open(cfg)
					if err := ingest(sp, txs); err != nil {
						t.Fatal(err)
					}
					if err := sp.Close(); err != nil {
						t.Fatal(err)
					}
				}
				files := func() map[string][]byte {
					names, err := filepath.Glob(filepath.Join(dir, "*-*-*"))
					if err != nil {
						t.Fatal(err)
					}
					out := map[string][]byte{}
					for _, name := range names {
						if out[filepath.Base(name)], err = os.ReadFile(name); err != nil {
							t.Fatal(err)
						}
					}
					return out
				}
				run(txs[:firstAt(txs, m3+60)])
				first := files()
				run(txs[firstAt(txs, m3):])
				second := files()
				if len(first) == 0 || len(second) <= len(first) {
					t.Fatalf("%d files after the first run, %d after the second", len(first), len(second))
				}
				for name, b := range first {
					if !bytes.Equal(second[name], b) {
						t.Errorf("%s: rewritten by the replay", name)
					}
				}
			})
		}
	}
}
