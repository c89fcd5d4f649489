package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
)

// selfCheck measures the benchmark's own noise: per workload, 2n full
// runs in processes of their own, assigned alternately to set A and set
// B (run i of either set uses seed cfg.seed+i, so the sets see the same
// inputs and differ only in when they ran). For every end-to-end metric
// it prints both medians, the gap between them and each set's
// interquartile spread, next to the bound, as the markdown committed in
// NOISE.md — and fails if a gap or a spread exceeds its bound (setup_s
// is held to the gap only). The spread is taken across seeds, so for the
// count metrics it is mostly the difference between one simnet universe
// and another; what a comparison of two commits may rely on is how they
// repeat at one seed. For the metrics of sameSeedBound the table
// therefore also gives the paired gap — the median over i of
// |B_i - A_i| / A_i, run i of either set being the same seed — and fails
// if it exceeds that tighter bound.
func selfCheck(cfg config, n int, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cfg.trace = false
	fmt.Fprintf(stdout, "# dnsbench -selfcheck %d\n\n", n)
	fmt.Fprintf(stdout, "%s, %d CPUs, GOMAXPROCS %d, -seconds %g, seeds %d..%d. Sets A and B alternate (A,B,A,B,...); run i of both sets uses seed %d+i.\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), cfg.seconds, cfg.seed, cfg.seed+int64(n)-1, cfg.seed)
	fmt.Fprintf(stdout, "gap = |median B - median A| / median A; spread = (Q3 - Q1) / median, quartiles as Python's statistics.quantiles(n=4); paired gap = median over i of |B_i - A_i| / A_i (same seed on both sides), held to the same-seed bound after the slash.\n\n")
	fmt.Fprintf(stdout, "| workload | metric | bound | median A | median B | gap | spread A | spread B | paired gap | verdict |\n")
	fmt.Fprintf(stdout, "|---|---|---|---|---|---|---|---|---|---|\n")
	var misses int
	for _, wd := range workloadDefs {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*n; i++ {
			var out bytes.Buffer
			cmd := exec.Command(exe, childArgs(cfg, wd.Name, cfg.seed+int64(i/2))...)
			cmd.Stdout, cmd.Stderr = &out, stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s run %d: %w", wd.Name, i, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("%s run %d: result line: %w", wd.Name, i, err)
			}
			for name, m := range res.Metrics {
				sets[i%2][name] = append(sets[i%2][name], m.Value)
			}
		}
		for _, d := range endToEndDefs {
			a, b := sets[0][d.Name], sets[1][d.Name]
			ma, mb := median(a), median(b)
			gap := math.Abs(mb-ma) / ma
			sa, sb := pySpread(a), pySpread(b)
			verdict := "ok"
			if gap > d.Bound || (d.Name != "setup_s" && (sa > d.Bound || sb > d.Bound)) {
				verdict = "MISS"
			}
			paired := "—"
			if tight, ok := sameSeedBound[d.Name]; ok {
				diffs := make([]float64, len(a))
				for i := range a {
					diffs[i] = math.Abs(b[i]-a[i]) / a[i]
				}
				pg := median(diffs)
				paired = fmt.Sprintf("%.4f / %.2f", pg, tight)
				if pg > tight {
					verdict = "MISS"
				}
			}
			if verdict != "ok" {
				misses++
			}
			fmt.Fprintf(stdout, "| %s | %s | %.2f | %.6g | %.6g | %.4f | %.4f | %.4f | %s | %s |\n",
				wd.Name, d.Name, d.Bound, ma, mb, gap, sa, sb, paired, verdict)
		}
	}
	if misses > 0 {
		return fmt.Errorf("selfcheck: %d metric(s) outside their bound", misses)
	}
	return nil
}
