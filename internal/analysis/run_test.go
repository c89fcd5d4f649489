package analysis

import (
	"bytes"
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dnsobservatory/internal/observatory"
	"dnsobservatory/internal/sie"
	"dnsobservatory/internal/simnet"
	"dnsobservatory/internal/tsv"
)

// The path RunWith replaced, frozen as the reference its store-backed
// reads are held to: the emitted snapshots collected in memory per
// aggregation, folded by the aggregator that used to sit behind Total.
// Do not "fix" anything here.

// frozenRun is the old RunWith's collection: every snapshot the pipeline
// emits, per aggregation, in time order.
func frozenRun(simCfg simnet.Config, obsCfg observatory.Config, aggsFor func(*simnet.Sim) []observatory.Aggregation) map[string][]*tsv.Snapshot {
	snaps := map[string][]*tsv.Snapshot{}
	sim := simnet.New(simCfg)
	pipe := observatory.New(obsCfg, aggsFor(sim), func(s *tsv.Snapshot) {
		snaps[s.Aggregation] = append(snaps[s.Aggregation], s)
	})
	var summarizer sie.Summarizer
	var sum sie.Summary
	sim.Run(func(tx *sie.Transaction) {
		if summarizer.Summarize(tx, &sum) == nil {
			pipe.Ingest(&sum, tx.QueryTime.Sub(simCfg.Start).Seconds())
		}
	})
	pipe.Close()
	return snaps
}

// frozenAggregate is the old tsv.Aggregate: counters average over all
// input windows with missing objects contributing zero, gauges over the
// windows where the object appears, modes take the window-weighted
// majority (ties low); rows in key order.
func frozenAggregate(snaps []*tsv.Snapshot) *tsv.Snapshot {
	first := snaps[0]
	type acc struct {
		sum     []float64
		present []int
		modes   []map[float64]int
	}
	accs := map[string]*acc{}
	out := &tsv.Snapshot{Aggregation: first.Aggregation, Level: first.Level + 1, Start: first.Start,
		Columns: first.Columns, Kinds: first.Kinds}
	for _, s := range snaps {
		out.Start = min(out.Start, s.Start)
		out.Windows += s.Windows
		out.TotalBefore += s.TotalBefore
		out.TotalAfter += s.TotalAfter
		for _, r := range s.Rows {
			a, ok := accs[r.Key]
			if !ok {
				n := len(first.Columns)
				a = &acc{sum: make([]float64, n), present: make([]int, n), modes: make([]map[float64]int, n)}
				accs[r.Key] = a
			}
			for i, v := range r.Values {
				a.sum[i] += v * float64(s.Windows)
				a.present[i] += s.Windows
				if first.Kinds[i] == tsv.Mode && v != 0 {
					if a.modes[i] == nil {
						a.modes[i] = map[float64]int{}
					}
					a.modes[i][v] += s.Windows
				}
			}
		}
	}
	keys := make([]string, 0, len(accs))
	for k := range accs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		a := accs[k]
		vals := make([]float64, len(first.Columns))
		for i := range vals {
			switch first.Kinds[i] {
			case tsv.Counter:
				vals[i] = a.sum[i] / float64(out.Windows)
			case tsv.Mode:
				var best float64
				bestW := -1
				for v, w := range a.modes[i] {
					if w > bestW || (w == bestW && v < best) {
						best, bestW = v, w
					}
				}
				vals[i] = best
			default:
				if a.present[i] > 0 {
					vals[i] = a.sum[i] / float64(a.present[i])
				}
			}
		}
		out.Rows = append(out.Rows, tsv.Row{Key: k, Values: vals})
	}
	return out
}

// sameSnapshot compares everything an analysis reads of two snapshots,
// values bit for bit, except that any NaN equals any NaN.
func sameSnapshot(t *testing.T, what string, want, got *tsv.Snapshot) {
	t.Helper()
	if got.Aggregation != want.Aggregation || got.Start != want.Start || got.Windows != want.Windows ||
		got.TotalBefore != want.TotalBefore || got.TotalAfter != want.TotalAfter {
		t.Fatalf("%s: header %s/%d/%d/%d/%d, want %s/%d/%d/%d/%d", what,
			got.Aggregation, got.Start, got.Windows, got.TotalBefore, got.TotalAfter,
			want.Aggregation, want.Start, want.Windows, want.TotalBefore, want.TotalAfter)
	}
	if len(got.Columns) != len(want.Columns) || len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d columns × %d rows, want %d × %d", what,
			len(got.Columns), len(got.Rows), len(want.Columns), len(want.Rows))
	}
	for i := range want.Columns {
		if got.Columns[i] != want.Columns[i] || got.Kinds[i] != want.Kinds[i] {
			t.Fatalf("%s: column %d is %s/%d, want %s/%d", what, i, got.Columns[i], got.Kinds[i], want.Columns[i], want.Kinds[i])
		}
	}
	for i, w := range want.Rows {
		g := got.Rows[i]
		if g.Key != w.Key {
			t.Fatalf("%s: row %d is %q, want %q", what, i, g.Key, w.Key)
		}
		for j := range w.Values {
			wv, gv := w.Values[j], g.Values[j]
			if math.Float64bits(wv) != math.Float64bits(gv) && !(math.IsNaN(wv) && math.IsNaN(gv)) {
				t.Fatalf("%s: %q %s is %v, want %v", what, w.Key, want.Columns[j], gv, wv)
			}
		}
	}
}

// TestRunMatchesFrozenPath holds the store-backed reads to the in-memory
// path they replaced, on both backends: Total to the fold of every
// window, TotalBetween split at mid-run to the fold of each half, and
// Windows to the emitted snapshots one by one. The run is 11 minutes
// long, so its live cascade must leave the 10-minute files one cascade
// over its minute files leaves.
func TestRunMatchesFrozenPath(t *testing.T) {
	simCfg := simnet.DefaultConfig()
	simCfg.Seed = 5
	simCfg.Duration = 660
	simCfg.QPS = 300
	simCfg.Resolvers = 40
	simCfg.SLDs = 300
	obsCfg := observatory.DefaultConfig()
	obsCfg.SkipFreshObjects = false
	aggsFor := func(sim *simnet.Sim) []observatory.Aggregation {
		return append(observatory.StandardAggregations(0.01), QMinAggregation("qminpairs", 5000, sim))
	}
	want := frozenRun(simCfg, obsCfg, aggsFor)
	mid := int64(simCfg.Duration / 2)
	for _, backend := range []string{tsv.BackendTSV, tsv.BackendColumnar} {
		t.Run(backend, func(t *testing.T) {
			st, err := tsv.NewStoreBackend(t.TempDir(), backend)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { st.Close() })
			res := RunWith(st, simCfg, obsCfg, aggsFor)
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			if len(res.Aggs) != len(want) {
				t.Fatalf("aggregations %v, the frozen run emitted %d", res.Aggs, len(want))
			}
			for _, agg := range res.Aggs {
				snaps := want[agg]
				var before, after []*tsv.Snapshot
				for _, s := range snaps {
					if s.Start < mid {
						before = append(before, s)
					} else {
						after = append(after, s)
					}
				}
				if len(before) == 0 || len(after) == 0 {
					t.Fatalf("%s: %d windows do not straddle %d", agg, len(snaps), mid)
				}
				total, err := res.Total(agg)
				if err != nil {
					t.Fatal(err)
				}
				sameSnapshot(t, agg+" Total", frozenAggregate(snaps), total)
				got, err := res.TotalBetween(agg, 0, mid)
				if err != nil {
					t.Fatal(err)
				}
				sameSnapshot(t, agg+" first half", frozenAggregate(before), got)
				if got, err = res.TotalBetween(agg, mid, int64(simCfg.Duration)+60); err != nil {
					t.Fatal(err)
				}
				sameSnapshot(t, agg+" second half", frozenAggregate(after), got)
				windows, err := res.Windows(agg)
				if err != nil {
					t.Fatal(err)
				}
				if len(windows) != len(snaps) {
					t.Fatalf("%s: %d windows read back, %d emitted", agg, len(windows), len(snaps))
				}
				for i, w := range windows {
					sameSnapshot(t, agg+" window", snaps[i], w)
				}
			}
			sameCascade(t, st, res.Aggs)
		})
	}
}

// sameCascade requires the coarse files in st to be byte for byte those
// one CascadeAll over a copy of its minute files writes.
func sameCascade(t *testing.T, st *tsv.Store, aggs []string) {
	t.Helper()
	entries, err := os.ReadDir(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := tsv.NewStoreBackend(t.TempDir(), st.Backend())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ref.Close() })
	coarse := map[string][]byte{}
	var last int64
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(st.Dir(), e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(e.Name(), "-min-") {
			coarse[e.Name()] = b
			continue
		}
		if err := os.WriteFile(filepath.Join(ref.Dir(), e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, agg := range aggs {
		starts, err := st.List(agg, tsv.Minutely)
		if err != nil {
			t.Fatal(err)
		}
		last = max(last, starts[len(starts)-1])
	}
	if err := ref.CascadeAll(aggs, last+60); err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, agg := range aggs {
		starts, err := ref.List(agg, tsv.Decaminutely)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range starts {
			want++
			name := ref.FileName(&tsv.Snapshot{Aggregation: agg, Level: tsv.Decaminutely, Start: s})
			b, err := os.ReadFile(filepath.Join(ref.Dir(), name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(coarse[name], b) {
				t.Errorf("%s: the live cascade differs from one cascade at the end", name)
			}
		}
	}
	if want == 0 || len(coarse) != want {
		t.Fatalf("the run cascaded %d files, one cascade at the end %d", len(coarse), want)
	}
}

// TestRunCascadesOnlyMinutes: with windows of 240 s, as Table 4 runs,
// the store holds the windows at the minute level and nothing above it.
// The cascade's levels take minute inputs; folding the windows at 0, 240
// and 480 s into a 10-minute file would cover 0–720 s. Retain does not
// trim them: retention deletes only windows an upper file absorbed.
func TestRunCascadesOnlyMinutes(t *testing.T) {
	simCfg := simnet.DefaultConfig()
	simCfg.Duration, simCfg.QPS, simCfg.Resolvers, simCfg.SLDs = 1300, 20, 8, 50
	obsCfg := observatory.DefaultConfig()
	obsCfg.WindowSec = 240
	st, err := tsv.NewColumnarStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	st.Retain[tsv.Minutely] = 2
	res := RunWith(st, simCfg, obsCfg, func(*simnet.Sim) []observatory.Aggregation {
		return observatory.StandardAggregations(0.01)
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	entries, err := os.ReadDir(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.Contains(e.Name(), "-min-") {
			t.Errorf("%s: a 240 s window was cascaded", e.Name())
		}
	}
	if want := 6 * len(res.Aggs); len(entries) != want {
		t.Errorf("%d files, want %d: six 240 s windows per aggregation, Retain notwithstanding", len(entries), want)
	}
}

// TestRunKeepsFirstStoreError: a Put that fails stops the run's writes,
// and every read returns that error.
func TestRunKeepsFirstStoreError(t *testing.T) {
	dir := t.TempDir()
	st, err := tsv.NewColumnarStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	simCfg := simnet.DefaultConfig()
	simCfg.Duration = 120
	simCfg.QPS = 50
	res := RunWith(st, simCfg, observatory.DefaultConfig(), func(*simnet.Sim) []observatory.Aggregation {
		return observatory.StandardAggregations(0.01)
	})
	if !errors.Is(res.Err, fs.ErrNotExist) {
		t.Fatalf("run error %v, want the failed Put's", res.Err)
	}
	if _, err := res.Total("srvip"); err != res.Err {
		t.Errorf("Total: %v", err)
	}
	if _, err := res.TotalBetween("srvip", 0, 60); err != res.Err {
		t.Errorf("TotalBetween: %v", err)
	}
	if _, err := res.Windows("srvip"); err != res.Err {
		t.Errorf("Windows: %v", err)
	}
}
