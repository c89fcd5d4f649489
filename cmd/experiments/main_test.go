package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dnsobservatory/internal/cli"
	"dnsobservatory/internal/experiments"
	"dnsobservatory/internal/tsv"
)

// runExp runs experiments with args, fails the test on error and returns
// its stdout.
func runExp(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run %v: %v\n%s", args, err, stderr.String())
	}
	return stdout.String()
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

func TestRunList(t *testing.T) {
	out := runExp(t, "-list")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != len(experiments.Registry) {
		t.Fatalf("-list printed %d lines for %d experiments", len(lines), len(experiments.Registry))
	}
	for i, e := range experiments.Registry {
		if f := strings.Fields(lines[i]); len(f) == 0 || f[0] != e.ID {
			t.Errorf("line %d = %q, want experiment %s", i, lines[i], e.ID)
		}
	}
}

func TestRunUnknownExperimentIsUsage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-run", "fig99"}, &stdout, &stderr)
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if code := cli.Exit("experiments", err); code != 2 {
		t.Fatalf("exit code %d for %v, want 2 (usage)", code, err)
	}
	if stdout.Len() != 0 {
		t.Errorf("ran something: %q", stdout.String())
	}
}

// TestRunIngestThenTop: -ingest fills a store that -top then answers
// from with exactly the rows a direct query returns, and ingesting the
// same scenario again rewrites every file with the bytes it had.
func TestRunIngestThenTop(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	runExp(t, "-store", dir, "-ingest", "-scale", "0.01")
	before := readDir(t, dir)
	if len(before) == 0 {
		t.Fatal("-ingest wrote nothing")
	}

	out := runExp(t, "-store", dir, "-top", "srvip", "-k", "3")
	st, err := tsv.NewStoreBackend(dir, tsv.BackendColumnar)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	res, err := tsv.RunQuery(st, tsv.Query{Agg: "srvip", Level: tsv.Minutely, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(res.Rows) != 3 || len(lines) != 2+len(res.Rows) {
		t.Fatalf("-top printed %d lines for %d rows:\n%s", len(lines), len(res.Rows), out)
	}
	for i, r := range res.Rows {
		want := []string{strconv.Itoa(i + 1), r.Key}
		for _, v := range r.Values {
			want = append(want, strconv.FormatFloat(v, 'g', -1, 64))
		}
		if got := strings.Fields(lines[2+i]); strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("rank %d:\n got %v\nwant %v", i+1, got, want)
		}
	}

	runExp(t, "-store", dir, "-ingest", "-scale", "0.01")
	after := readDir(t, dir)
	for name, b := range before {
		if !bytes.Equal(after[name], b) {
			t.Errorf("%s changed on the second -ingest", name)
		}
	}
}
