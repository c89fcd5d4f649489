package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"
)

func smokeRun(t *testing.T, workload string, seed int64, trace bool, f fault) (*result, *detail) {
	t.Helper()
	cfg := smokeScale(config{workload: workload, seed: seed, trace: trace, outDir: t.TempDir()})
	cfg.fault = f
	rep, err := run(cfg, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	res, det, err := rep.summarize()
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if trace {
		det.TraceFile = filepath.Join(cfg.outDir, "trace.json")
		if err := writeTrace(det.TraceFile, &traceFile{Workload: workload, Seed: seed, Spans: rep.tracer.spans}); err != nil {
			t.Fatal(err)
		}
	}
	return res, det
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetrics asserts res reports exactly the metrics of defs, each
// once (a map cannot hold twice), each with its unit.
func checkMetrics(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, table has %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not reported", d.Name)
		case m.Unit != d.Unit || m.Unit == "":
			t.Errorf("metric %s has unit %q, want %q", d.Name, m.Unit, d.Unit)
		case !nameRE.MatchString(d.Name):
			t.Errorf("metric name %q is outside the allowed alphabet", d.Name)
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables in defs.go.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Workloads, workloadDefs) {
		t.Errorf("workloads differ from defs.go:\n%+v\n%+v", file.Workloads, workloadDefs)
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEndDefs) {
		t.Errorf("end_to_end differs from defs.go:\n%+v\n%+v", file.EndToEnd, endToEndDefs)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayerDefs) {
		t.Errorf("per_layer differs from defs.go:\n%+v\n%+v", file.PerLayer, perLayerDefs)
	}
	if !reflect.DeepEqual(file.Command, []string{"go", "run", "./cmd/dnsbench"}) || !reflect.DeepEqual(file.Paths, []string{"cmd/dnsbench"}) {
		t.Errorf("command %v, paths %v", file.Command, file.Paths)
	}
	// The length of a run is one constant: what the contract passes as
	// --seconds is what the flag defaults to.
	if file.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, the -seconds default is %d", file.RunSeconds, runSeconds)
	}
	setup := false
	for _, d := range file.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

// TestSmoke runs every workload at the smoke scale, untraced and traced.
func TestSmoke(t *testing.T) {
	for _, wd := range workloadDefs {
		t.Run(wd.Name, func(t *testing.T) {
			t.Parallel()
			res, det := smokeRun(t, wd.Name, 1, false, faultNone)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct=%v, %d of %d failed: %v", res.Correct, res.Failed, res.Attempted, det.Faults)
			}
			checkMetrics(t, res, endToEndDefs)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v: end-to-end metrics are never 0", name, m.Value)
				}
			}
			// Publish lag: every window but the last (which only the final
			// flush closes) gives one sample per round, none dropped.
			wantLat := det.Rounds * (det.Windows - 1)
			switch wd.Name {
			case wlQueryMix:
				wantLat = det.Rounds * det.OpsPerRound
			case wlNetDurable: // delivery lag, every lagStride-th transaction of the paced rounds
				wantLat = det.PacedRounds * ((det.OpsPerRound + lagStride - 1) / lagStride)
			}
			if det.LatencyN != wantLat || wantLat == 0 || det.StoreDigest == "" {
				t.Errorf("%d latency samples, want %d; store digest %q", det.LatencyN, wantLat, det.StoreDigest)
			}

			tres, tdet := smokeRun(t, wd.Name, 1, true, faultNone)
			if !tres.Correct {
				t.Errorf("traced run incorrect: %v", tdet.Faults)
			}
			checkMetrics(t, tres, perLayerDefs)
			// Two processes' worth of runs at one seed, one of them staged:
			// the same seed must leave the same store, byte for byte.
			if tdet.StoreDigest != det.StoreDigest {
				t.Errorf("a second run at the same seed left a different store: %s vs %s", short(tdet.StoreDigest), short(det.StoreDigest))
			}
			b, err := os.ReadFile(tdet.TraceFile)
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(b, &tf); err != nil {
				t.Fatalf("trace file does not parse: %v", err)
			}
			if len(tf.Spans) == 0 {
				t.Fatal("trace file holds no spans")
			}
			ids := map[int32]bool{0: true}
			for _, s := range tf.Spans {
				ids[s.ID] = true
			}
			for _, s := range tf.Spans {
				if !ids[s.Parent] {
					t.Errorf("span %d (%s) has a parent %d that does not exist", s.ID, s.Name, s.Parent)
				}
				if s.EndNs < s.StartNs {
					t.Errorf("span %d (%s) was never closed", s.ID, s.Name)
				}
			}
			if wd.Name == wlReplaySerial && (tdet.SelfCoverage < 0.95 || tdet.SelfCoverage > 1.05) {
				t.Errorf("per-layer self times cover %.3f of the traced round wall time", tdet.SelfCoverage)
			}
		})
	}
}

// TestSeedDeterminism: the same seed gives the same pool, another seed
// another. (That the same seed also gives the same store is TestSmoke's
// untraced-against-traced digest check, on every workload.)
func TestSeedDeterminism(t *testing.T) {
	t.Parallel()
	sc := smokeScale(config{})
	var streams [3][]byte
	for i, seed := range []int64{1, 1, 2} {
		p, err := buildPool(simConfig(seed, sc.simDuration, sc.simQPS))
		if err != nil {
			t.Fatal(err)
		}
		streams[i] = p.stream
	}
	if !bytes.Equal(streams[0], streams[1]) {
		t.Error("seed 1 built two different pools")
	}
	if bytes.Equal(streams[0], streams[2]) {
		t.Error("seeds 1 and 2 built the same pool")
	}
}

// TestWindowTracker: the tracker's boundaries are the engine's, whole
// minutes of stream time, wherever in its minute the stream starts.
func TestWindowTracker(t *testing.T) {
	var wt windowTracker
	if _, ok := wt.cross(30.5); ok {
		t.Error("the first transaction closed a window")
	}
	if _, ok := wt.cross(59.9); ok {
		t.Error("59.9 closed the window [0, 60)")
	}
	if closed, ok := wt.cross(61); !ok || closed != 0 {
		t.Errorf("cross(61) after cross(30.5) = %d, %v; want window 0 closed", closed, ok)
	}
	if _, ok := wt.cross(60.5); ok { // late: clamped into the open window
		t.Error("a late transaction closed a window")
	}
	if closed, ok := wt.cross(185); !ok || closed != 60 { // a gap: two windows roll, the open one is reported
		t.Errorf("cross(185) = %d, %v; want window 60 closed", closed, ok)
	}
	if closed, ok := wt.cross(240); !ok || closed != 180 {
		t.Errorf("cross(240) = %d, %v; want window 180 closed", closed, ok)
	}
}

// TestPublishLagMidMinuteStart: a stream that starts mid-minute still
// gives one publish-lag sample per window boundary. With the tracker's
// windows opening at the first transaction's time the marks landed after
// the engine's dumps, under the wrong window, and every sample was lost.
func TestPublishLagMidMinuteStart(t *testing.T) {
	t.Parallel()
	sc := smokeScale(config{})
	sim := simConfig(1, sc.simDuration, sc.simQPS)
	sim.Start = sim.Start.Add(30500 * time.Millisecond)
	p, err := buildPool(sim)
	if err != nil {
		t.Fatal(err)
	}
	if p.nows[0] < 30.5 || p.nows[0] > 35 {
		t.Fatalf("the pool starts at stream time %v, want just past 30.5", p.nows[0])
	}
	for _, sharded := range []bool{false, true} {
		dir := t.TempDir()
		rc := &roundCtx{dir: dir, storeDir: filepath.Join(dir, "store")}
		if err := os.MkdirAll(rc.storeDir, 0o755); err != nil {
			t.Fatal(err)
		}
		rr, err := (&replayWorkload{p: p, sharded: sharded}).round(rc)
		if err != nil {
			t.Fatal(err)
		}
		if len(rr.lagMs) != p.windows-1 || len(rr.faults) != 0 {
			t.Errorf("sharded=%v: %d publish-lag samples over %d windows, want %d (faults %v)",
				sharded, len(rr.lagMs), p.windows, p.windows-1, rr.faults)
		}
	}
}

// TestMeasuredRounds: the number of measured rounds follows from the
// command line alone.
func TestMeasuredRounds(t *testing.T) {
	for _, wd := range workloadDefs {
		full := fullScale(config{workload: wd.Name, seconds: runSeconds})
		n, paced := full.measuredRounds(), full.pacedRounds()
		nominal := float64(n)*nominalRoundSec[wd.Name] + float64(paced)*nominalPacedRoundSec
		if n < 5 || nominal < runSeconds-2 || nominal > runSeconds+2 || (paced > 0) != (wd.Name == wlNetDurable) {
			t.Errorf("%s: %d rounds of nominally %v s and %d paced rounds for -seconds %d", wd.Name, n, nominalRoundSec[wd.Name], paced, runSeconds)
		}
		if n := fullScale(config{workload: wd.Name, seconds: 1}).measuredRounds(); n != 3 {
			t.Errorf("%s: %d rounds for -seconds 1, want the minimum of 3", wd.Name, n)
		}
	}
	if n := smokeScale(config{workload: wlNetDurable, seconds: runSeconds}).measuredRounds(); n != 2 {
		t.Errorf("smoke scale runs %d rounds, want 2", n)
	}
}

// TestPrematureCloseIsFailure: closing the collector when the sensor is
// done, before the consumer has drained, leaves the spilled tail in the
// journal. That must surface as failed operations, not as a fast round.
func TestPrematureCloseIsFailure(t *testing.T) {
	t.Parallel()
	res, det := smokeRun(t, wlNetDurable, 1, false, faultPrematureClose)
	if res.Correct || res.Failed == 0 {
		t.Errorf("premature close reported correct=%v with %d of %d failed (%v)", res.Correct, res.Failed, res.Attempted, det.Faults)
	}
	if res.Failed >= res.Attempted {
		t.Errorf("premature close lost everything (%d of %d): the queued head should have been delivered", res.Failed, res.Attempted)
	}
}

// TestCorruptSnapshotIsCaught: one flipped byte in one snapshot file of
// one round fails the store-identity check.
func TestCorruptSnapshotIsCaught(t *testing.T) {
	t.Parallel()
	res, det := smokeRun(t, wlReplaySerial, 1, false, faultCorruptSnapshot)
	if res.Correct || len(det.Faults) == 0 {
		t.Errorf("corrupted snapshot went unnoticed: correct=%v faults=%v", res.Correct, det.Faults)
	}
}

func TestHelpAndBadFlags(t *testing.T) {
	if err := mainErr([]string{"-h"}, io.Discard, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h returned %v", err)
	}
	for _, args := range [][]string{{"-workload", "nope"}, {"-trace", "2"}, {"-seconds", "0"}, {"-seconds", "61"}, {"extra"}} {
		if err := mainErr(args, io.Discard, io.Discard); err == nil {
			t.Errorf("%v: accepted", args)
		}
	}
}

func TestPyQuantile(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	vals := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	for i, want := range []float64{2.75, 5.5, 8.25} {
		if got := pyQuantile(vals, i+1); got != want {
			t.Errorf("cut %d = %v, want %v", i+1, got, want)
		}
	}
}
