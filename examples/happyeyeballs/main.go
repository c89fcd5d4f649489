// Happy Eyeballs scenario (paper §5): an IPv4-only domain configures a
// negative-caching TTL 50 times shorter than its A record TTL. The
// dual-stack clients' AAAA queries then dominate its authoritative
// traffic as empty (NoData) responses — until IPv6 is enabled halfway
// through, when the empty responses vanish while query volume holds.
package main

import (
	"fmt"
	"log"

	"dnsobservatory/dnsobs"
)

func main() {
	simCfg := dnsobs.DefaultSimulationConfig()
	simCfg.Duration = 900
	simCfg.QPS = 1500
	simCfg.SLDs = 800
	simCfg.HEShare = 0.8 // most clients are dual-stack

	const enableAt = 600

	var snapshots []*dnsobs.Snapshot
	pipeCfg := dnsobs.DefaultPipelineConfig()
	pipeCfg.SkipFreshObjects = false
	pipe := dnsobs.NewPipeline(pipeCfg,
		[]dnsobs.Aggregation{{Name: "esld", K: 5000, Key: dnsobs.ESLDKey(nil)}},
		func(s *dnsobs.Snapshot) { snapshots = append(snapshots, s) })

	sim := dnsobs.NewSimulation(simCfg)
	// Misconfigure a popular domain like the paper's network-time hosts:
	// A TTL 750 s, negative TTL 15 s, no AAAA records.
	victim := sim.Universe.SLDs[3]
	victim.ATTL = 750
	victim.NegTTL = 15
	victim.IPv6 = false
	for _, f := range victim.FQDNs {
		f.V6Override = 0
	}
	sim.Schedule(dnsobs.V6EnableEvent(enableAt, victim.Name))
	fmt.Printf("victim domain: %s (A TTL %d, negative TTL %d, IPv6 off until t=%ds)\n\n",
		victim.Name, victim.ATTL, victim.NegTTL, enableAt)

	var summarizer dnsobs.Summarizer
	var sum dnsobs.Summary
	sim.Run(func(tx *dnsobs.Transaction) {
		if err := summarizer.Summarize(tx, &sum); err != nil {
			log.Fatal(err)
		}
		pipe.Ingest(&sum, tx.QueryTime.Sub(simCfg.Start).Seconds())
	})
	pipe.Close()

	fmt.Println("minute  queries/min  empty-AAAA share")
	for _, s := range snapshots {
		row := s.Find(victim.Name)
		if row == nil {
			continue
		}
		hits, _ := s.Value(row, "hits")
		nil6, _ := s.Value(row, "ok6nil")
		marker := ""
		if s.Start == enableAt {
			marker = "   <- IPv6 enabled"
		}
		if hits > 0 {
			fmt.Printf("%6d  %11.0f  %15.0f%%%s\n", s.Start/60, hits, 100*nil6/hits, marker)
		}
	}
}
