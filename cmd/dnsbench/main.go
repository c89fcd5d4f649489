// Command dnsbench is the repository's benchmark: it drives the real
// layers — sie, observatory, detect, transport, wal, tsv, webui —
// through their public functions exactly as cmd/dnsobs and cmd/dnsgen
// wire them, on four workloads generated from a seed, checks their
// outputs, and prints every metric named in BENCHMARK.json by name with
// its unit. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. See README.md beside
// this file for the metric glossary and the workloads.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

func main() {
	if err := mainErr(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "dnsbench:", err)
		}
		os.Exit(1)
	}
}

func mainErr(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dnsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload  = fs.String("workload", "all", "workload to run: replay-serial, replay-sharded-detect, net-durable, query-mix, or all (one process each)")
		seed      = fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		secs      = fs.Float64("seconds", runSeconds, "nominal length of the measured rounds, 1 to 60: fixes how many rounds are run (the benchmark contract passes run_seconds of BENCHMARK.json)")
		trace     = fs.Int("trace", 0, "1: run the workload with spans on, print the per-layer metrics and write trace-<workload>.json; 0: print the end-to-end metrics")
		smoke     = fs.Bool("smoke", false, "tiny scale (130 simulated seconds at 40 qps, two rounds): for tests, not for numbers")
		outDir    = fs.String("out", ".bench_build", "directory for scratch stores, journals and trace files")
		selfcheck = fs.Int("selfcheck", 0, "run two alternating sets of N full runs per workload and compare them against the bounds (prints NOISE.md)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace takes 0 or 1")
	}
	if !(*secs >= 1 && *secs <= 60) {
		return fmt.Errorf("-seconds takes 1 to 60")
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *secs, trace: *trace == 1, outDir: *outDir}
	if *smoke {
		cfg = smokeScale(cfg)
	} else {
		cfg = fullScale(cfg)
	}
	if cfg.trace {
		cfg.setups = 1 // setup_s is an end-to-end metric; a traced run does not report it
	}
	if *selfcheck > 0 {
		return selfCheck(cfg, *selfcheck, stdout, stderr)
	}
	if *workload == "all" {
		return runAll(cfg, stdout, stderr)
	}
	rep, err := run(cfg, stderr)
	if err != nil {
		return err
	}
	res, det, err := rep.summarize()
	if err != nil {
		return err
	}
	if cfg.trace {
		det.TraceFile = filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")
		tf := &traceFile{Workload: cfg.workload, Seed: cfg.seed, Spans: rep.tracer.spans}
		for idx := range rep.tracedIdx {
			tf.TracedRounds = append(tf.TracedRounds, idx)
		}
		sort.Ints(tf.TracedRounds)
		if err := writeTrace(det.TraceFile, tf); err != nil {
			return err
		}
	}
	if err := printResult(stdout, res, det); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: correctness gate failed (%d of %d operations failed, %d faults)",
			cfg.workload, res.Failed, res.Attempted, len(det.Faults))
	}
	return nil
}

// childArgs is the command line of one single-workload run of cfg.
func childArgs(cfg config, name string, seed int64) []string {
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	args := []string{"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(cfg.seconds),
		"-trace", trace, "-out", cfg.outDir}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	return args
}

// runAll runs each workload in a process of its own, so every one
// starts from a fresh heap and a fresh resident-set high-water mark.
func runAll(cfg config, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var failed error
	for _, d := range workloadDefs {
		cmd := exec.Command(exe, childArgs(cfg, d.Name, cfg.seed)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil && failed == nil {
			failed = fmt.Errorf("workload %s: %w", d.Name, err)
		}
	}
	return failed
}
