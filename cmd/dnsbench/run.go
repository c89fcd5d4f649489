package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

// config is one invocation: which workload, which seed, how long, and
// the scale. The scale fields are fixed by fullScale or smokeScale; only
// workload, seed, seconds and trace come from the command line.
type config struct {
	workload string
	seed     int64
	seconds  float64 // nominal length of the measured rounds; see measuredRounds
	trace    bool
	outDir   string // parent of the scratch directory and trace files
	smoke    bool   // smokeScale rather than fullScale

	simDuration float64 // simnet seconds in the pool
	simQPS      float64
	setups      int // pool builds timed for setup_s
	rounds      int // >0: exactly this many measured rounds, whatever seconds says
	shifts      int // query-mix: time-shifted copies of the pool's windows
	queries     int // query-mix: requests per round
	palette     int // query-mix: distinct requests per class
	driveN      int // isolated drives: items per drive

	fault fault // tests only
}

// fault injects the failures the correctness gate must catch.
type fault int

const (
	faultNone fault = iota
	// faultPrematureClose closes the net-durable collector as soon as
	// the sensor has been acknowledged, before the consumer has drained.
	faultPrematureClose
	// faultCorruptSnapshot flips one byte of one snapshot file of the
	// second round before it is hashed.
	faultCorruptSnapshot
)

// fullScale is what BENCHMARK.json runs: 660 simulated seconds span 11
// minutely windows, so the final cascade emits a decaminutely level.
func fullScale(c config) config {
	c.simDuration, c.simQPS = 660, 200
	c.setups = 3
	c.shifts, c.queries, c.palette = 11, 250, 3
	c.driveN = 1 << 17
	return c
}

// smokeScale is the tier-1 test's: three windows, two rounds.
func smokeScale(c config) config {
	c.smoke = true
	c.simDuration, c.simQPS = 130, 40
	c.setups, c.rounds = 1, 2
	c.shifts, c.queries, c.palette = 8, 80, 2
	c.driveN = 1 << 12
	return c
}

// nominalRoundSec is what one round of each workload takes at full
// scale on the shared 2-core box the benchmark was sized on (NOISE.md).
var nominalRoundSec = map[string]float64{
	wlReplaySerial:  3.6,
	wlReplaySharded: 2.0,
	wlNetDurable:    0.82,
	wlQueryMix:      2.5,
}

// paceRate is the load, in transactions per second, that net-durable's
// paced rounds offer: half the paper's 200 k tx/s line and under half of
// what the closed-loop rounds deliver on the box the benchmark was
// sized on, so no backlog builds.
const paceRate = 100_000

// nominalPacedRoundSec is one paced round at full scale: the pool's
// ≈157 k transactions offered at paceRate.
const nominalPacedRoundSec = 1.6

// pacedShare is the part of -seconds net-durable spends on paced rounds.
const pacedShare = 0.4

// measuredRounds is how many closed-loop rounds a run measures: -seconds
// worth of nominal rounds (on net-durable, the share the paced rounds
// leave), at least three. It is a function of the command line alone,
// never of the clock, so the number of rounds — and with it the latency
// sample count, the median-round pick and the totals behind the
// allocation averages — is the same on every run and on both sides of a
// comparison, however fast the box happens to be that minute.
func (c config) measuredRounds() int {
	if c.rounds > 0 {
		return c.rounds
	}
	secs := c.seconds
	if c.workload == wlNetDurable {
		secs *= 1 - pacedShare
	}
	return max(3, int(math.Round(secs/nominalRoundSec[c.workload])))
}

// pacedRounds is how many open-loop rounds follow the measured ones.
// Only net-durable has them: its closed loop runs the sensor, the
// collector and the consumer flat out, where latency is the depth of the
// queues between them and moves by a third from run to run (NOISE.md),
// so its latency is taken at a fixed offered rate below saturation.
func (c config) pacedRounds() int {
	switch {
	case c.workload != wlNetDurable:
		return 0
	case c.rounds > 0:
		return c.rounds
	}
	return max(2, int(math.Round(c.seconds*pacedShare/nominalPacedRoundSec)))
}

// workload is one system under test. A round is one complete life of
// it: fresh engine, fresh store directory, same input.
type workload interface {
	ops() int // operations in one round
	round(rc *roundCtx) (*roundResult, error)
}

// roundCtx is what the driver hands a round.
type roundCtx struct {
	idx int
	dir string // fresh scratch for the round; removed once it is audited
	// storeDir is the snapshot store the round fills, under dir.
	storeDir string
	tr       *tracer // nil: untraced
	span     int32   // the round's span
	// paced makes a net-durable round open-loop: the sensor is handed
	// transaction i at i/paceRate seconds into the round.
	paced bool
	// probeState asks a replay round to measure observatory.state_mb at
	// the last full window (it forces a GC, so only the warm-up does it).
	probeState bool
	baselineMB float64
	stateMB    float64
	fault      fault
}

// roundResult is what a round reports back. The driver adds the
// timings and the store identity.
type roundResult struct {
	ops      int
	failed   int64
	faults   []string // correctness-gate misses; any makes the run incorrect
	rejected uint64
	lagMs    []float64 // end-to-end latency samples
	lateMs   []float64 // paced rounds: how far behind its schedule the generator ran
	dumpMs   []float64

	storeDigest string
	storeBytes  int64

	wall   time.Duration
	cpu    time.Duration
	allocs allocCounters

	// layer counters, read by the traced report
	stage    stageAllocs
	putTime  time.Duration
	rows     uint64
	windows  int
	net      netCounters
	query    queryCounters
	measured time.Duration // query-mix: the handler pass alone
}

// report is everything one invocation measured.
type report struct {
	cfg        config
	ops        int
	rounds     []*roundResult // measured, untraced
	traced     []*roundResult
	paced      []*roundResult // net-durable: open-loop rounds, untraced
	setupTimes []time.Duration
	setupExtra time.Duration // workload set-up beyond the pool
	calib      []time.Duration
	pool       *pool
	stateMB    float64
	tracer     *tracer
	tracedIdx  map[int]bool
	faults     []string
	drives     map[string]float64
	peakRSSMB  float64
}

// run performs one invocation: set-up, one warm-up round, the measured
// rounds, and under trace the staged rounds and the isolated drives.
func run(cfg config, log io.Writer) (*report, error) {
	if !slices.ContainsFunc(workloadDefs, func(d workloadDef) bool { return d.Name == cfg.workload }) {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(cfg.outDir, "dnsbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	rep := &report{cfg: cfg, tracedIdx: map[int]bool{}}

	// Set-up, timed and repeated: the median build is setup_s.
	for i := 0; i < cfg.setups; i++ {
		rep.pool = nil
		debug.FreeOSMemory() // the previous build is garbage, not resident set
		start := time.Now()
		p, err := buildPool(simConfig(cfg.seed, cfg.simDuration, cfg.simQPS))
		if err != nil {
			return nil, err
		}
		rep.setupTimes = append(rep.setupTimes, time.Since(start))
		rep.pool = p
	}
	fmt.Fprintf(log, "# pool: seed %d, %d transactions, %d windows, %.1f MB stream, built in %v\n",
		cfg.seed, len(rep.pool.txs), rep.pool.windows, float64(len(rep.pool.stream))/(1<<20), rep.setupTimes)

	var w workload
	switch cfg.workload {
	case wlReplaySerial:
		w = &replayWorkload{p: rep.pool}
	case wlReplaySharded:
		w = &replayWorkload{p: rep.pool, sharded: true}
	case wlNetDurable:
		nw, err := newNetWorkload(rep.pool, scratch)
		if err != nil {
			return nil, err
		}
		w = nw
	case wlQueryMix:
		qw, err := newQueryWorkload(cfg, rep.pool, scratch, log)
		if err != nil {
			return nil, err
		}
		rep.setupExtra = qw.setupTime
		rep.faults = append(rep.faults, qw.faults...)
		w = qw
	}
	rep.ops = w.ops()

	if cfg.trace {
		rep.tracer = newTracer()
	}
	// Set-up is over: hand its garbage back to the OS and start watching
	// the resident set, so peak_rss_mb is the system's (plus the pool),
	// not the generator's.
	debug.FreeOSMemory()
	baseline := liveHeapMB()
	rss := startRSSSampler()
	defer rss.stop()

	// One round is a full life of the system. The first is the warm-up:
	// page faults, heap growth and lazily built tables land there.
	one := func(idx int, tr *tracer, probe, paced bool) (*roundResult, error) {
		rc := &roundCtx{idx: idx, tr: tr, probeState: probe, baselineMB: baseline, paced: paced,
			dir: filepath.Join(scratch, fmt.Sprintf("round-%d", idx)), fault: cfg.fault}
		rc.storeDir = filepath.Join(rc.dir, "store")
		if err := os.MkdirAll(rc.storeDir, 0o755); err != nil {
			return nil, err
		}
		defer os.RemoveAll(rc.dir)
		runtime.GC()
		rep.calib = append(rep.calib, calibrate())
		rep.tracer.setRound(idx)
		rc.span = rep.tracer.begin(0, "round")
		a0, c0, t0 := readAllocs(), cpuTime(), time.Now()
		rr, err := w.round(rc)
		wall, cpu, allocs := time.Since(t0), cpuTime()-c0, readAllocs().sub(a0)
		rep.tracer.end(rc.span, int64(rep.ops))
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", idx, err)
		}
		rr.wall, rr.cpu, rr.allocs = wall, cpu, allocs
		if rr.measured > 0 {
			rr.wall = rr.measured
		}
		if probe {
			rep.stateMB = rc.stateMB
		}
		if rr.storeDigest == "" { // query-mix reports its read-only store's itself
			if cfg.fault == faultCorruptSnapshot && idx == 2 {
				if err := corruptOneFile(rc.storeDir); err != nil {
					return nil, err
				}
			}
			if rr.storeDigest, rr.storeBytes, err = dirDigest(rc.storeDir); err != nil {
				return nil, err
			}
		}
		return rr, nil
	}

	if _, err := one(0, nil, cfg.trace, false); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	// Under trace every other measured round is batch-staged; the
	// untraced ones are its overhead reference.
	for idx := 1; idx <= cfg.measuredRounds(); idx++ {
		staged := cfg.trace && idx%2 == 0
		var tr *tracer
		if staged {
			tr = rep.tracer
			rep.tracedIdx[idx] = true
		}
		rr, err := one(idx, tr, false, false)
		if err != nil {
			return nil, err
		}
		if staged {
			rep.traced = append(rep.traced, rr)
		} else {
			rep.rounds = append(rep.rounds, rr)
		}
	}
	for i := 1; i <= cfg.pacedRounds(); i++ {
		rr, err := one(cfg.measuredRounds()+i, nil, false, true)
		if err != nil {
			return nil, err
		}
		rep.paced = append(rep.paced, rr)
	}
	if cfg.trace {
		rep.drives, err = isolatedDrives(cfg, rep.pool, scratch)
		if err != nil {
			return nil, fmt.Errorf("isolated drives: %w", err)
		}
	}
	rep.peakRSSMB = rss.stop()
	rep.gate(w)
	return rep, nil
}

// all returns every round run after the warm-up.
func (rep *report) all() []*roundResult {
	return slices.Concat(rep.rounds, rep.traced, rep.paced)
}

// gate applies the run-level correctness checks: every round's faults,
// and identical store contents across rounds of the workload.
func (rep *report) gate(w workload) {
	all := rep.all()
	for i, rr := range all {
		for _, f := range rr.faults {
			rep.faults = append(rep.faults, fmt.Sprintf("round %d: %s", i+1, f))
		}
		if rr.storeDigest != all[0].storeDigest {
			rep.faults = append(rep.faults, fmt.Sprintf("round %d: store content differs from round 1 (%s vs %s)",
				i+1, short(rr.storeDigest), short(all[0].storeDigest)))
		}
	}
	if nw, ok := w.(*netWorkload); ok && len(all) > 0 && all[0].storeDigest != nw.reference {
		rep.faults = append(rep.faults, fmt.Sprintf("store differs from the direct serial run of the same stream (%s vs %s)",
			short(all[0].storeDigest), short(nw.reference)))
	}
}

func short(digest string) string {
	if len(digest) > 12 {
		return digest[:12]
	}
	return digest
}

// corruptOneFile flips the last byte of the first file in dir.
func corruptOneFile(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		path := filepath.Join(dir, e.Name())
		b, err := os.ReadFile(path)
		if err != nil || len(b) == 0 {
			return fmt.Errorf("corrupt %s: %v", path, err)
		}
		b[len(b)-1] ^= 0xff
		return os.WriteFile(path, b, 0o644)
	}
	return fmt.Errorf("corrupt: no file in %s", dir)
}
