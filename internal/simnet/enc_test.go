package simnet

import (
	"crypto/sha256"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dnsobservatory/internal/encwire"
	"dnsobservatory/internal/observatory"
	"dnsobservatory/internal/sie"
	"dnsobservatory/internal/tsv"
)

// encTestConfig is a small scenario exercising every workload class the
// encrypted leg must carry, including the C2-style tunnel and exfil
// channels.
func encTestConfig() Config {
	cfg := DefaultConfig()
	cfg.Duration = 20
	cfg.QPS = 300
	cfg.Resolvers = 30
	cfg.Sensors = 8
	cfg.SLDs = 300
	cfg.Mix.Exfil = 0.002
	return cfg
}

// ingestToStore replays a transaction stream through the standard
// aggregation pipeline into a TSV store (the dnsobs ingest contract,
// mirroring the probe golden test).
func ingestToStore(t *testing.T, dir string, sim *Sim) {
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
	var sum sie.Summary
	var base time.Time
	sim.Run(func(tx *sie.Transaction) {
		if err := summarizer.Summarize(tx, &sum); err != nil {
			pipe.RecordRejected()
			return
		}
		if base.IsZero() {
			base = tx.QueryTime.Truncate(time.Minute)
		}
		pipe.Ingest(&sum, tx.QueryTime.Sub(base).Seconds())
	})
	pipe.Close()
	if err := store.CascadeAll(aggNames, lastStart+60); err != nil {
		t.Fatal(err)
	}
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

// TestEncModesGoldenStore is the differential golden test: the same
// seed run plaintext and over each encrypted mode must produce
// byte-identical aggregation snapshot stores. Encryption of the client
// leg changes framing and timing of that leg — never the DNS semantics
// of the resolver↔authoritative stream the Observatory aggregates.
func TestEncModesGoldenStore(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run in -short mode")
	}
	type result struct {
		mode    encwire.Mode
		digests map[string][32]byte
		obs     int
	}
	modes := []encwire.Mode{encwire.ModePlain, encwire.ModeDoT, encwire.ModeDoH, encwire.ModeDoQ}
	results := make([]result, 0, len(modes))
	for _, mode := range modes {
		cfg := encTestConfig()
		cfg.EncMode = mode
		cfg.EncPolicy = encwire.PadEDNS0
		obs := 0
		tunneled := map[uint32]bool{}
		if mode != encwire.ModePlain {
			cfg.EncEmit = func(o *encwire.Observation) {
				obs++
				tunneled[o.Workload] = true
			}
		}
		dir := t.TempDir()
		ingestToStore(t, dir, New(cfg))
		if mode != encwire.ModePlain {
			if obs == 0 {
				t.Fatalf("%v: no encwire observations emitted", mode)
			}
			// The C2-style channels must ride the encrypted leg too.
			if !tunneled[sie.WorkloadTunnel] || !tunneled[sie.WorkloadExfil] {
				t.Errorf("%v: tunnel/exfil workloads missing from observations: %v", mode, tunneled)
			}
		}
		results = append(results, result{mode, storeDigests(t, dir), obs})
	}
	ref := results[0]
	if len(ref.digests) == 0 {
		t.Fatal("plaintext run produced no snapshot files")
	}
	for _, res := range results[1:] {
		if len(res.digests) != len(ref.digests) {
			t.Fatalf("%v: file count %d != plaintext %d", res.mode, len(res.digests), len(ref.digests))
		}
		for rel, sum := range ref.digests {
			got, ok := res.digests[rel]
			if !ok {
				t.Errorf("%v: store missing %s", res.mode, rel)
				continue
			}
			if got != sum {
				t.Errorf("%v: %s differs from plaintext store", res.mode, rel)
			}
		}
	}
}

// TestEncLegObservations checks the client-leg stream itself: flow
// accounting, timestamps, labels and the cache-hit size replay.
func TestEncLegObservations(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run in -short mode")
	}
	cfg := encTestConfig()
	cfg.EncMode = encwire.ModeDoH
	cfg.EncPolicy = encwire.PadNone
	var obs []encwire.Observation
	cfg.EncEmit = func(o *encwire.Observation) { obs = append(obs, *o) }
	sim := New(cfg)
	stats := sim.Run(nil)

	encStats, ok := sim.EncStats()
	if !ok {
		t.Fatal("EncStats not available on an encrypted run")
	}
	if encStats.Messages != encStats.Queries+encStats.Responses {
		t.Fatalf("accounting identity broken: %+v", encStats)
	}
	if uint64(len(obs)) != encStats.Messages {
		t.Fatalf("emitted %d observations, stats count %d", len(obs), encStats.Messages)
	}
	if encStats.Flows != stats.ClientQueries {
		t.Fatalf("flows %d != client queries %d", encStats.Flows, stats.ClientQueries)
	}
	// Every client event produces at least one message; cache hits and
	// resolutions both cross the encrypted channel.
	if encStats.Queries < stats.ClientQueries {
		t.Fatalf("queries %d < client events %d", encStats.Queries, stats.ClientQueries)
	}
	end := cfg.Start.Add(time.Duration((cfg.Duration + 5) * float64(time.Second)))
	domains := 0
	for i := range obs {
		o := &obs[i]
		if o.Mode != encwire.ModeDoH {
			t.Fatalf("observation %d mode = %v", i, o.Mode)
		}
		if o.Time.Before(cfg.Start) || o.Time.After(end) {
			t.Fatalf("observation %d time %v outside run window", i, o.Time)
		}
		if o.Domain != "" {
			domains++
		}
	}
	if domains == 0 {
		t.Fatal("no observation carries a ground-truth domain")
	}
	if encStats.Handshakes == 0 || encStats.Handshakes >= encStats.Queries {
		t.Fatalf("handshakes = %d of %d queries: connection reuse not modeled", encStats.Handshakes, encStats.Queries)
	}
}

// TestEncTransportTag: encrypted runs stamp ClientTransport on every
// SIE transaction; plaintext runs leave it zero (wire-compatible).
func TestEncTransportTag(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run in -short mode")
	}
	cfg := encTestConfig()
	cfg.Duration = 5
	cfg.EncMode = encwire.ModeDoQ
	sim := New(cfg)
	n := 0
	sim.Run(func(tx *sie.Transaction) {
		n++
		if tx.ClientTransport != sie.TransportDoQ {
			t.Fatalf("transaction %d ClientTransport = %d, want %d", n, tx.ClientTransport, sie.TransportDoQ)
		}
	})
	if n == 0 {
		t.Fatal("no transactions emitted")
	}

	cfg = encTestConfig()
	cfg.Duration = 5
	sim = New(cfg)
	sim.Run(func(tx *sie.Transaction) {
		if tx.ClientTransport != sie.TransportUDP53 {
			t.Fatalf("plaintext run ClientTransport = %d", tx.ClientTransport)
		}
	})
}
