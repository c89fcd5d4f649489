package probe

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dnsobservatory/internal/dnswire"
	"dnsobservatory/internal/observatory"
	"dnsobservatory/internal/sie"
	"dnsobservatory/internal/transport"
	"dnsobservatory/internal/tsv"
)

// ingestAll replays a transaction stream through the dnsobs ingest
// contract, mirroring the transport golden test: summarize, serial
// pipeline, snapshots into a TSV store, flush, cascade.
func ingestAll(t *testing.T, dir string, next func(*sie.Transaction) error) []string {
	t.Helper()
	store, err := tsv.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	aggs := observatory.StandardAggregations(0.01)
	var aggNames []string
	for _, a := range aggs {
		aggNames = append(aggNames, a.Name)
	}
	var lastStart int64 = -1
	pipe := observatory.New(observatory.DefaultConfig(), aggs, func(s *tsv.Snapshot) {
		if err := store.Put(s); err != nil {
			t.Error(err)
		}
		lastStart = s.Start
	})
	var summarizer sie.Summarizer
	summarizer.KeepUnparsableResponses = true
	var tx sie.Transaction
	var sum sie.Summary
	var base time.Time
	for {
		err := next(&tx)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := summarizer.Summarize(&tx, &sum); err != nil {
			pipe.RecordRejected()
			continue
		}
		if base.IsZero() {
			base = tx.QueryTime.Truncate(time.Minute)
		}
		pipe.Ingest(&sum, tx.QueryTime.Sub(base).Seconds())
	}
	pipe.Close()
	if err := store.CascadeAll(aggNames, lastStart+60); err != nil {
		t.Fatal(err)
	}
	return aggNames
}

// storeDigests hashes every file under a store directory.
func storeDigests(t *testing.T, dir string) map[string][32]byte {
	t.Helper()
	out := map[string][32]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		out[rel] = sha256.Sum256(b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestProbeFedGoldenStore closes the active-measurement loop: the
// transaction stream a probe sweep emits produces byte-identical store
// contents whether it is ingested directly or shipped sensor→TCP→
// collector first — the probe plane feeds the passive pipeline as just
// another sensor.
func TestProbeFedGoldenStore(t *testing.T) {
	sim, auth := testAuthority(t, 120)

	// A deterministic clock that marches 40ms per reading spreads the
	// sweep across several minute windows, so the cascade has real work.
	var clockMu sync.Mutex
	now := time.Unix(1600000000, 0)
	clock := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		now = now.Add(40 * time.Millisecond)
		return now
	}

	// Sweep the population, capturing every wire exchange. Packets alias
	// worker scratch buffers, so the capture clones them.
	var stream bytes.Buffer
	w := sie.NewWriter(&stream)
	var captured int
	e := New(Config{
		Exchanger:     auth,
		Roots:         auth.RootAddrs(),
		Workers:       8,
		Timeout:       5 * time.Second,
		AuthRate:      -1,
		HierarchyRate: -1,
		Seed:          3,
		Now:           clock,
		OnTransaction: func(tx *sie.Transaction) {
			cp := *tx
			cp.QueryPacket = append([]byte(nil), tx.QueryPacket...)
			cp.ResponsePacket = append([]byte(nil), tx.ResponsePacket...)
			if err := w.Write(&cp); err != nil {
				t.Error(err)
			}
			captured++
		},
	})
	submitted := 0
	for _, zone := range sim.Universe.SLDs {
		for i, f := range zone.FQDNs {
			if i >= 2 {
				break
			}
			if err := e.Submit(Target{QName: f.Name, QType: dnswire.TypeA}); err != nil {
				t.Fatal(err)
			}
			submitted++
		}
	}
	for i := 0; i < 40; i++ {
		if err := e.Submit(Target{QName: fmt.Sprintf("golden-ghost-%d.com.", i), QType: dnswire.TypeA}); err != nil {
			t.Fatal(err)
		}
		submitted++
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if captured < submitted {
		t.Fatalf("captured %d transactions for %d probes", captured, submitted)
	}

	// Path A: ingest the captured stream directly.
	dirDirect := t.TempDir()
	rd := sie.NewReader(bytes.NewReader(stream.Bytes()))
	ingestAll(t, dirDirect, rd.Read)

	// Path B: replay the same stream through sensor→TCP→collector.
	dirNet := t.TempDir()
	ln, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coll := transport.NewCollector(transport.CollectorConfig{})
	go coll.Serve(ln)
	sendErr := make(chan error, 1)
	go func() {
		s := transport.NewSensor(transport.SensorConfig{Addr: ln.Addr().String(), Name: "probe-golden"})
		rd := sie.NewReader(bytes.NewReader(stream.Bytes()))
		var tx sie.Transaction
		for {
			err := rd.Read(&tx)
			if err == io.EOF {
				break
			}
			if err == nil {
				err = s.Write(&tx)
			}
			if err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- s.Close()
	}()
	go func() {
		if err := <-sendErr; err != nil {
			t.Error(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for coll.Stats().Frames < uint64(captured) && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		coll.Close()
	}()
	aggNames := ingestAll(t, dirNet, func(tx *sie.Transaction) error {
		rx, ok := <-coll.C()
		if !ok {
			return io.EOF
		}
		*tx = *rx
		return nil
	})

	direct := storeDigests(t, dirDirect)
	networked := storeDigests(t, dirNet)
	if len(direct) == 0 {
		t.Fatal("direct path produced no snapshot files")
	}
	if len(direct) < len(aggNames) {
		t.Fatalf("only %d files for %d aggregations", len(direct), len(aggNames))
	}
	if len(direct) != len(networked) {
		t.Fatalf("file count differs: direct %d, networked %d", len(direct), len(networked))
	}
	for rel, sum := range direct {
		nsum, ok := networked[rel]
		if !ok {
			t.Errorf("networked store is missing %s", rel)
			continue
		}
		if sum != nsum {
			t.Errorf("%s differs between direct and probe-fed ingest", rel)
		}
	}
}
