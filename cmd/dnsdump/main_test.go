package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"dnsobservatory/internal/sie"
	"dnsobservatory/internal/simnet"
	"dnsobservatory/internal/tsv"
)

// dump runs dnsdump with args over stdin and returns its stdout lines.
func dump(t *testing.T, stdin []byte, args ...string) []string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(args, bytes.NewReader(stdin), &stdout, &stderr); err != nil {
		t.Fatalf("run %v: %v\n%s", args, err, stderr.String())
	}
	return strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
}

// TestRunSnapBothFormats: one snapshot stored by either backend dumps
// to the same text.
func TestRunSnapBothFormats(t *testing.T) {
	snap := &tsv.Snapshot{
		Aggregation: "srvip", Level: tsv.Minutely, Start: 120,
		Columns: []string{"hits", "delay", "ttl"},
		Kinds:   []tsv.Kind{tsv.Counter, tsv.Gauge, tsv.Mode},
		Rows: []tsv.Row{
			{Key: "192.0.2.1", Values: []float64{12, 3.25, 300}},
			{Key: "192.0.2.2", Values: []float64{7, 0.5, 60}},
		},
		Windows: 1, TotalBefore: 30, TotalAfter: 19,
	}
	var text [][]string
	for _, backend := range []string{tsv.BackendTSV, tsv.BackendColumnar} {
		st, err := tsv.NewStoreBackend(t.TempDir(), backend)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(snap); err != nil {
			t.Fatal(err)
		}
		text = append(text, dump(t, nil, "-snap", filepath.Join(st.Dir(), st.FileName(snap))))
	}
	tsvText, colText := strings.Join(text[0], "\n"), strings.Join(text[1], "\n")
	if tsvText != colText {
		t.Fatalf(".tsv dumps as\n%s\n.col as\n%s", tsvText, colText)
	}
	if !strings.Contains(tsvText, "192.0.2.2\t7\t0.5\t60") {
		t.Errorf("rows missing from the dump:\n%s", tsvText)
	}
}

// TestRunFilters: -n keeps the first N shown transactions and -grep the
// ones whose QNAME holds the substring; neither changes a line.
func TestRunFilters(t *testing.T) {
	cfg := simnet.DefaultConfig()
	cfg.Duration, cfg.QPS, cfg.Resolvers, cfg.SLDs = 5, 100, 4, 50
	var stream bytes.Buffer
	w := sie.NewWriter(&stream)
	simnet.New(cfg).Run(func(tx *sie.Transaction) {
		if err := w.Write(tx); err != nil {
			t.Fatal(err)
		}
	})

	all := dump(t, stream.Bytes())
	if len(all) < 100 {
		t.Fatalf("only %d lines from the stream", len(all))
	}
	shown := func(line string) bool { return !strings.Contains(line, "UNPARSABLE") }

	first := dump(t, stream.Bytes(), "-n", "5")
	n := 0
	for i, line := range first {
		if line != all[i] {
			t.Fatalf("-n line %d = %q, want %q", i, line, all[i])
		}
		if shown(line) {
			n++
		}
	}
	if n != 5 || !shown(first[len(first)-1]) {
		t.Fatalf("-n 5 printed %d transactions:\n%s", n, strings.Join(first, "\n"))
	}

	// A substring that some QNAMEs hold and others do not: the first
	// label of one of them.
	mid := len(all) / 2
	for !shown(all[mid]) {
		mid++
	}
	sub := strings.Fields(all[mid])[6]
	sub = sub[:strings.IndexByte(sub, '.')+1]
	var want []string
	for _, line := range all {
		if !shown(line) || strings.Contains(strings.Fields(line)[6], sub) {
			want = append(want, line)
		}
	}
	got := dump(t, stream.Bytes(), "-grep", sub)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("-grep %q printed %d lines, want %d", sub, len(got), len(want))
	}
	if len(want) == len(all) {
		t.Fatalf("-grep %q filtered nothing", sub)
	}
}
