// Quickstart: generate two minutes of synthetic passive-DNS traffic,
// run it through the Observatory pipeline, and print the top ten
// authoritative nameservers with their traffic features — the smallest
// end-to-end use of the library.
package main

import (
	"fmt"
	"log"
	"os"

	"dnsobservatory/dnsobs"
)

func main() {
	// A small synthetic Internet: 100 resolvers, 1000 domains.
	simCfg := dnsobs.DefaultSimulationConfig()
	simCfg.Duration = 120
	simCfg.QPS = 1000
	simCfg.Resolvers = 100
	simCfg.SLDs = 1000

	// Track the top 500 nameserver IPs, snapshot every 60 s, and put
	// every snapshot into a columnar store as it is emitted.
	dir, err := os.MkdirTemp("", "quickstart-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	store, err := dnsobs.NewColumnarSnapshotStore(dir)
	if err != nil {
		log.Fatal(err)
	}
	snapshots := 0
	pipeCfg := dnsobs.DefaultPipelineConfig()
	pipeCfg.SkipFreshObjects = false // keep the demo output full
	pipe := dnsobs.NewPipeline(pipeCfg,
		[]dnsobs.Aggregation{{Name: "srvip", K: 500, Key: dnsobs.SrvIPKey}},
		func(s *dnsobs.Snapshot) {
			if err := store.Put(s); err != nil {
				log.Fatalf("put: %v", err)
			}
			snapshots++
		})

	// Feed the stream: parse raw packets, summarize, ingest.
	var summarizer dnsobs.Summarizer
	var sum dnsobs.Summary
	sim := dnsobs.NewSimulation(simCfg)
	stats := sim.Run(func(tx *dnsobs.Transaction) {
		if err := summarizer.Summarize(tx, &sum); err != nil {
			log.Fatalf("summarize: %v", err)
		}
		pipe.Ingest(&sum, tx.QueryTime.Sub(simCfg.Start).Seconds())
	})
	pipe.Close()

	fmt.Printf("processed %d transactions (%d client queries, %d cache hits)\n",
		stats.Transactions, stats.ClientQueries, stats.CacheHits)
	fmt.Printf("collected %d minutely snapshots\n\n", snapshots)

	// Ask the store for the whole run's busiest nameservers.
	top, err := dnsobs.QuerySnapshots(store, dnsobs.SnapshotQuery{
		Agg: "srvip", Level: dnsobs.Minutely, OrderBy: "hits", K: 10,
		Columns: []string{"hits", "delay_q50", "nxd", "qnamesa"},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("top 10 authoritative nameservers by queries/minute:")
	for i, row := range top.Rows {
		hits, delay, nxd, qnames := row.Values[0], row.Values[1], row.Values[2], row.Values[3]
		fmt.Printf("%2d. %-16s %8.1f q/min  median delay %6.1f ms  NXD %5.1f%%  ~%.0f names/min\n",
			i+1, row.Key, hits, delay, 100*nxd/hits, qnames)
	}
}
