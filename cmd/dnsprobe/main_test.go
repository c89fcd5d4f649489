package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"dnsobservatory/internal/sie"
	"dnsobservatory/internal/simnet"
	"dnsobservatory/internal/transport"
)

// probeArgs are a small, fast population shared by the tests.
func probeArgs(extra ...string) []string {
	return append([]string{"-slds", "50", "-workers", "8", "-timeout", "200ms"}, extra...)
}

// outcomes parses run's first summary line and checks that every issued
// probe has exactly one outcome.
func outcomes(t *testing.T, stderr string) (issued, answered int) {
	t.Helper()
	var timeouts, limited, merged int
	line, _, _ := strings.Cut(stderr, "\n")
	if _, err := fmt.Sscanf(line, "dnsprobe: %d probes (%d answered, %d timeout, %d rate-limited, %d merged)",
		&issued, &answered, &timeouts, &limited, &merged); err != nil {
		t.Fatalf("summary %q: %v", line, err)
	}
	if issued != answered+timeouts+limited+merged {
		t.Fatalf("issued %d != answered %d + timeouts %d + rate-limited %d + merged %d",
			issued, answered, timeouts, limited, merged)
	}
	return issued, answered
}

func TestRunSweep(t *testing.T) {
	out := filepath.Join(t.TempDir(), "probe.sie")
	var stderr bytes.Buffer
	if err := run(probeArgs("-count", "200", "-o", out), &stderr); err != nil {
		t.Fatal(err)
	}
	issued, answered := outcomes(t, stderr.String())
	if issued != 200 || answered == 0 {
		t.Fatalf("issued %d, answered %d", issued, answered)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r := sie.NewReader(f)
	var tx sie.Transaction
	for r.Read(&tx) == nil {
	}
	if r.Count() < uint64(answered) {
		t.Fatalf("%d transactions written for %d answered probes", r.Count(), answered)
	}
}

// TestRunFromStore closes the loop: dnsobs's run builds a store from a
// passive stream of the same population, and dnsprobe probes its
// busiest eSLDs.
func TestRunFromStore(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cmd/dnsobs")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "dnsobs")
	gobin := filepath.Join(runtime.GOROOT(), "bin", "go")
	if out, err := exec.Command(gobin, "build", "-o", bin, "dnsobservatory/cmd/dnsobs").CombinedOutput(); err != nil {
		t.Fatalf("build dnsobs: %v\n%s", err, out)
	}

	stream := filepath.Join(dir, "passive.sie")
	f, err := os.Create(stream)
	if err != nil {
		t.Fatal(err)
	}
	cfg := simnet.DefaultConfig()
	cfg.Duration, cfg.QPS, cfg.Resolvers, cfg.SLDs = 120, 50, 4, 50
	bw := bufio.NewWriter(f)
	w := sie.NewWriter(bw)
	simnet.New(cfg).Run(func(tx *sie.Transaction) {
		if err := w.Write(tx); err != nil {
			t.Fatal(err)
		}
	})
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	store := filepath.Join(dir, "store")
	if out, err := exec.Command(bin, "-i", stream, "-dir", store, "-k", "0.01", "-report", "0").CombinedOutput(); err != nil {
		t.Fatalf("dnsobs: %v\n%s", err, out)
	}

	var stderr bytes.Buffer
	if err := run(probeArgs("-from-store", store, "-agg", "esld", "-top", "20"), &stderr); err != nil {
		t.Fatal(err)
	}
	if issued, answered := outcomes(t, stderr.String()); issued == 0 || answered == 0 {
		t.Fatalf("issued %d, answered %d from the store's top eSLDs", issued, answered)
	}
}

// TestRunConnectFleet streams to an in-test collector addressed in
// dnsgen's fleet form — the shared sink dials it.
func TestRunConnectFleet(t *testing.T) {
	ln, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coll := transport.NewCollector(transport.CollectorConfig{})
	go coll.Serve(ln)
	var n uint64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range coll.C() {
			n++
		}
	}()

	var stderr bytes.Buffer
	if err := run(probeArgs("-count", "50", "-connect", "A="+ln.Addr().String(), "-sensor", "probe-1"), &stderr); err != nil {
		t.Fatal(err)
	}
	outcomes(t, stderr.String())
	// run returned after the collector acknowledged every transaction;
	// its handler exits once it has read through the Bye.
	deadline := time.Now().Add(5 * time.Second)
	for s := coll.Sensors(); len(s) != 1 || s[0].Connected; s = coll.Sensors() {
		if time.Now().After(deadline) {
			t.Fatalf("sensor never finished: %+v", s)
		}
		time.Sleep(time.Millisecond)
	}
	coll.Close()
	<-done
	if s := coll.Sensors(); n == 0 || s[0].Name != "probe-1" || s[0].Frames != n {
		t.Fatalf("delivered %d, sensors %+v", n, s)
	}
}

func TestRunFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-qtype", "AXFR"},
		{"-connect", "A=h:1,B"},
		{"-no-such-flag"},
	} {
		var stderr bytes.Buffer
		if err := run(probeArgs(args...), &stderr); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}
