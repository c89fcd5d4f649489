// Happy Eyeballs scenario (paper §5): an IPv4-only domain configures a
// negative-caching TTL 50 times shorter than its A record TTL. The
// dual-stack clients' AAAA queries then dominate its authoritative
// traffic as empty (NoData) responses — until IPv6 is enabled halfway
// through, when the empty responses vanish while query volume holds.
package main

import (
	"fmt"
	"log"
	"os"

	"dnsobservatory/dnsobs"
)

func main() {
	simCfg := dnsobs.DefaultSimulationConfig()
	simCfg.Duration = 900
	simCfg.QPS = 1500
	simCfg.SLDs = 800
	simCfg.HEShare = 0.8 // most clients are dual-stack

	const enableAt = 600

	dir, err := os.MkdirTemp("", "happyeyeballs-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	store, err := dnsobs.NewColumnarSnapshotStore(dir)
	if err != nil {
		log.Fatal(err)
	}
	pipeCfg := dnsobs.DefaultPipelineConfig()
	pipeCfg.SkipFreshObjects = false
	var victim string
	res := dnsobs.RunWith(store, simCfg, pipeCfg, func(sim *dnsobs.Simulation) []dnsobs.Aggregation {
		// Misconfigure a popular domain like the paper's network-time
		// hosts: A TTL 750 s, negative TTL 15 s, no AAAA records.
		z := sim.Universe.SLDs[3]
		z.ATTL = 750
		z.NegTTL = 15
		z.IPv6 = false
		for _, f := range z.FQDNs {
			f.V6Override = 0
		}
		victim = z.Name
		sim.Schedule(dnsobs.V6EnableEvent(enableAt, victim))
		fmt.Printf("victim domain: %s (A TTL %d, negative TTL %d, IPv6 off until t=%ds)\n\n",
			victim, z.ATTL, z.NegTTL, enableAt)
		return []dnsobs.Aggregation{{Name: "esld", K: 5000, Key: dnsobs.ESLDKey(nil)}}
	})
	snapshots, err := res.Windows("esld")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("minute  queries/min  empty-AAAA share")
	for _, s := range snapshots {
		row := s.Find(victim)
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
