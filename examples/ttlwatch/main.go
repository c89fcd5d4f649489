// TTL watch (paper §4.2): monitor the hourly TTL modes of the most
// popular authoritatively-answered FQDNs and flag domains whose
// operators appear to be staging an infrastructure change — the classic
// pattern is cutting NS/A TTLs ahead of a provider switch.
package main

import (
	"fmt"
	"log"
	"net/netip"

	"dnsobservatory/dnsobs"
)

func main() {
	simCfg := dnsobs.DefaultSimulationConfig()
	simCfg.Duration = 1200
	simCfg.QPS = 1500
	simCfg.SLDs = 800

	var snapshots []*dnsobs.Snapshot
	pipeCfg := dnsobs.DefaultPipelineConfig()
	pipeCfg.SkipFreshObjects = false
	pipe := dnsobs.NewPipeline(pipeCfg,
		[]dnsobs.Aggregation{{Name: "aafqdn", K: 10000, Key: dnsobs.AAFQDNKey}},
		func(s *dnsobs.Snapshot) { snapshots = append(snapshots, s) })

	sim := dnsobs.NewSimulation(simCfg)
	// Stage two changes: a provider switch with the traditional TTL
	// slash, and a renumbering into a cloud with a TTL raise after.
	mover := sim.Universe.SLDs[4]
	mover.ATTL = 600
	sim.Schedule(dnsobs.TTLChangeEvent(600, mover.Name, 10))
	sim.Schedule(dnsobs.NSChangeEvent(660, mover.Name, "dnsv2.example"))

	renum := sim.Universe.SLDs[6]
	renum.ATTL = 600
	sim.Schedule(dnsobs.RenumberEvent(600, renum.Name,
		netip.MustParseAddr("203.0.113.80"), 38400))
	fmt.Printf("staged: %s switches DNS provider (TTL 600->10), %s renumbers (TTL 600->38400)\n\n",
		mover.Name, renum.Name)

	var summarizer dnsobs.Summarizer
	var sum dnsobs.Summary
	sim.Run(func(tx *dnsobs.Transaction) {
		if err := summarizer.Summarize(tx, &sum); err != nil {
			log.Fatal(err)
		}
		pipe.Ingest(&sum, tx.QueryTime.Sub(simCfg.Start).Seconds())
	})
	pipe.Close()

	// Watch the per-minute TTL mode of every tracked FQDN and report
	// significant changes (>=10% of responses behind the new value).
	lastTTL := map[string]float64{}
	fmt.Println("detected TTL changes:")
	for _, s := range snapshots {
		for i := range s.Rows {
			row := &s.Rows[i]
			ttl, _ := s.Value(row, "ttl1")
			share, _ := s.Value(row, "ttl1_share")
			if share < 0.1 {
				continue
			}
			if prev, ok := lastTTL[row.Key]; ok && prev != ttl {
				verdict := "TTL decrease (change staged?)"
				if ttl > prev {
					verdict = "TTL increase (change completed?)"
				}
				fmt.Printf("  t=%4ds  %-40s %6.0f -> %-6.0f  %s\n",
					s.Start, row.Key, prev, ttl, verdict)
			}
			lastTTL[row.Key] = ttl
		}
	}
}
