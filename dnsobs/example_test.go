package dnsobs_test

import (
	"fmt"
	"os"

	"dnsobservatory/dnsobs"
)

// ExampleNewPipeline runs one minute of synthetic passive DNS through
// the Observatory into a snapshot store and asks the store for the three
// busiest nameservers. Counter features are exact, so the output is
// reproducible for a fixed seed.
func ExampleNewPipeline() {
	simCfg := dnsobs.DefaultSimulationConfig()
	simCfg.Seed = 11
	simCfg.Duration = 60
	simCfg.QPS = 500
	simCfg.Resolvers = 50
	simCfg.SLDs = 400

	dir, err := os.MkdirTemp("", "example-")
	if err != nil {
		fmt.Println("store:", err)
		return
	}
	defer os.RemoveAll(dir)
	store, err := dnsobs.NewColumnarSnapshotStore(dir)
	if err != nil {
		fmt.Println("store:", err)
		return
	}
	cfg := dnsobs.DefaultPipelineConfig()
	cfg.SkipFreshObjects = false
	pipe := dnsobs.NewPipeline(cfg,
		[]dnsobs.Aggregation{{Name: "srvip", K: 500, Key: dnsobs.SrvIPKey}},
		func(s *dnsobs.Snapshot) {
			if err == nil {
				err = store.Put(s)
			}
		})

	var summarizer dnsobs.Summarizer
	var sum dnsobs.Summary
	sim := dnsobs.NewSimulation(simCfg)
	sim.Run(func(tx *dnsobs.Transaction) {
		if err := summarizer.Summarize(tx, &sum); err == nil {
			pipe.Ingest(&sum, tx.QueryTime.Sub(simCfg.Start).Seconds())
		}
	})
	pipe.Close()
	if err != nil {
		fmt.Println("put:", err)
		return
	}

	top, err := dnsobs.QuerySnapshots(store, dnsobs.SnapshotQuery{
		Agg: "srvip", Level: dnsobs.Minutely, OrderBy: "hits", K: 3, Columns: []string{"hits"},
	})
	if err != nil {
		fmt.Println("query:", err)
		return
	}
	for i, row := range top.Rows {
		fmt.Printf("%d. %s %.0f queries/min\n", i+1, row.Key, row.Values[0])
	}
	// Output:
	// 1. 13.1.13.6 2490 queries/min
	// 2. 13.10.0.1 1193 queries/min
	// 3. 13.20.13.6 674 queries/min
}

// ExampleETLD shows Public-Suffix-List-aware domain grouping.
func ExampleETLD() {
	fmt.Println(dnsobs.ETLD("www.bbc.co.uk"))
	fmt.Println(dnsobs.ESLD("www.bbc.co.uk"))
	fmt.Println(dnsobs.ESLD("a.b.example.com."))
	// Output:
	// co.uk.
	// bbc.co.uk.
	// example.com.
}
