package observatory_test

// End-to-end integration: synthetic traffic is serialized to an
// SIE-style framed stream, read back, summarized, pushed through the
// pipeline, persisted to a TSV store, and time-aggregated — the full
// dnsgen | dnsobs path as a single test.

import (
	"bytes"
	"io"
	"testing"

	"dnsobservatory/internal/observatory"
	"dnsobservatory/internal/sie"
	"dnsobservatory/internal/simnet"
	"dnsobservatory/internal/tsv"
)

func TestStreamToStorePipeline(t *testing.T) {
	// 1. Generate and serialize.
	simCfg := simnet.DefaultConfig()
	simCfg.Duration = 150
	simCfg.QPS = 400
	simCfg.Resolvers = 40
	simCfg.SLDs = 300
	var stream bytes.Buffer
	w := sie.NewWriter(&stream)
	var writeErr error
	stats := simnet.New(simCfg).Run(func(tx *sie.Transaction) {
		if writeErr == nil {
			writeErr = w.Write(tx)
		}
	})
	if writeErr != nil {
		t.Fatal(writeErr)
	}
	if w.Count() != stats.Transactions {
		t.Fatalf("wrote %d, stats %d", w.Count(), stats.Transactions)
	}

	// 2. Read back and observe.
	store, err := tsv.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var lastStart int64 = -1
	var putErr error
	pipe := observatory.New(observatory.DefaultConfig(),
		[]observatory.Aggregation{
			{Name: "srvip", K: 500, Key: observatory.SrvIPKey},
			{Name: "qtype", K: 32, Key: observatory.QTypeKey, NoAdmitter: true},
		},
		func(s *tsv.Snapshot) {
			if putErr == nil {
				putErr = store.Put(s)
				lastStart = s.Start
			}
		})
	r := sie.NewReader(&stream)
	var summarizer sie.Summarizer
	var tx sie.Transaction
	var sum sie.Summary
	var n uint64
	for {
		err := r.Read(&tx)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := summarizer.Summarize(&tx, &sum); err != nil {
			t.Fatal(err)
		}
		pipe.Ingest(&sum, tx.QueryTime.Sub(simCfg.Start).Seconds())
		n++
	}
	pipe.Close()
	if putErr != nil {
		t.Fatal(putErr)
	}
	if n != stats.Transactions {
		t.Fatalf("read %d of %d", n, stats.Transactions)
	}

	// 3. The store has minutely files; the cascade is a no-op for an
	// open window and produces nothing yet at 150 s... but after
	// pretending time advanced it folds them into a decaminutely file.
	starts, err := store.List("srvip", tsv.Minutely)
	if err != nil {
		t.Fatal(err)
	}
	if len(starts) < 2 {
		t.Fatalf("minutely files: %v", starts)
	}
	if err := store.CascadeAll([]string{"srvip"}, lastStart+600); err != nil {
		t.Fatal(err)
	}
	deca, err := store.List("srvip", tsv.Decaminutely)
	if err != nil {
		t.Fatal(err)
	}
	if len(deca) == 0 {
		t.Fatal("cascade produced no decaminutely file")
	}
	agg, err := store.Get("srvip", tsv.Decaminutely, deca[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.Rows) == 0 || agg.TotalBefore == 0 {
		t.Fatalf("aggregate: %d rows, %d before", len(agg.Rows), agg.TotalBefore)
	}

	// 4. Sanity: the qtype aggregation saw A queries. The first window
	// is empty by design — §2.4 skips objects that have not yet survived
	// a full window — so check the second one.
	qstarts, err := store.List("qtype", tsv.Minutely)
	if err != nil || len(qstarts) < 2 {
		t.Fatalf("qtype files: %v %v", qstarts, err)
	}
	first, err := store.Get("qtype", tsv.Minutely, qstarts[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Rows) != 0 {
		t.Errorf("first window should skip fresh objects, has %d rows", len(first.Rows))
	}
	qs, err := store.Get("qtype", tsv.Minutely, qstarts[1])
	if err != nil {
		t.Fatal(err)
	}
	if qs.Find("A") == nil {
		t.Error("qtype snapshot missing A")
	}
}
