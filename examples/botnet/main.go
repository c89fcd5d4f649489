// Botnet monitoring (paper §3.2): a Mylobot-style DGA floods the gTLD
// servers with NXDOMAIN lookups for nonexistent .com domains. Watching
// the rcode and srvip aggregations shows popular nameservers acting as
// the DNS's "first line of defence" against generated names.
package main

import (
	"fmt"
	"log"
	"net/netip"
	"os"

	"dnsobservatory/dnsobs"
)

func main() {
	simCfg := dnsobs.DefaultSimulationConfig()
	simCfg.Duration = 300
	simCfg.QPS = 2000
	simCfg.SLDs = 1500
	// Crank the DGA up mid-run by doubling its weight from the start;
	// the interesting signal is the NXD concentration, not the timing.
	simCfg.Mix.Botnet = 0.12

	dir, err := os.MkdirTemp("", "botnet-")
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
	res := dnsobs.RunWith(store, simCfg, pipeCfg, func(*dnsobs.Simulation) []dnsobs.Aggregation {
		return []dnsobs.Aggregation{
			{Name: "rcode", K: 16, Key: dnsobs.RCodeKey, NoAdmitter: true},
			{Name: "srvip", K: 2000, Key: dnsobs.SrvIPKey},
		}
	})
	if res.Err != nil {
		log.Fatal(res.Err)
	}
	gtld := map[netip.Addr]bool{}
	for _, s := range res.Sim.Infra.GTLDServers {
		gtld[s.Addr] = true
	}
	roots := map[netip.Addr]bool{}
	for _, s := range res.Sim.Infra.RootServers {
		roots[s.Addr] = true
	}

	// Global RCODE mix.
	rcodes, err := dnsobs.QuerySnapshots(store, dnsobs.SnapshotQuery{
		Agg: "rcode", Level: dnsobs.Minutely, OrderBy: "hits", Columns: []string{"hits"},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("global RCODE mix (per minute):")
	var total float64
	for _, row := range rcodes.Rows {
		total += row.Values[0]
	}
	for _, row := range rcodes.Rows {
		hits := row.Values[0]
		fmt.Printf("  %-12s %7.0f q/min (%.1f%%)\n", row.Key, hits, 100*hits/total)
	}

	// Where does the NXDOMAIN land?
	servers, err := dnsobs.QuerySnapshots(store, dnsobs.SnapshotQuery{
		Agg: "srvip", Level: dnsobs.Minutely, OrderBy: "nxd", K: 8, Columns: []string{"nxd", "hits"},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ntop NXDOMAIN sinks (the first line of defence):")
	for _, row := range servers.Rows {
		nxd, hits := row.Values[0], row.Values[1]
		kind := "hosting"
		if a, err := netip.ParseAddr(row.Key); err == nil {
			switch {
			case gtld[a]:
				kind = "gTLD registry"
			case roots[a]:
				kind = "root server"
			}
		}
		fmt.Printf("  %-16s %7.0f NXD/min of %7.0f q/min (%4.0f%%)  [%s]\n",
			row.Key, nxd, hits, 100*nxd/hits, kind)
	}
}
