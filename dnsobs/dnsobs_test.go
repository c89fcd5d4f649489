package dnsobs_test

import (
	"testing"

	"dnsobservatory/dnsobs"
)

// TestFacadeEndToEnd exercises the public API the way the experiments
// do: simulate, summarize and ingest into a snapshot store, then
// aggregate the whole run through the query engine.
func TestFacadeEndToEnd(t *testing.T) {
	simCfg := dnsobs.DefaultSimulationConfig()
	simCfg.Duration = 90
	simCfg.QPS = 300
	simCfg.Resolvers = 30
	simCfg.SLDs = 200

	store, err := dnsobs.NewSnapshotStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := dnsobs.DefaultPipelineConfig()
	cfg.SkipFreshObjects = false
	res := dnsobs.RunWith(store, simCfg, cfg, func(*dnsobs.Simulation) []dnsobs.Aggregation {
		return []dnsobs.Aggregation{
			{Name: "srvip", K: 300, Key: dnsobs.SrvIPKey},
			{Name: "etld", K: 100, Key: dnsobs.ETLDKey(nil)},
		}
	})
	if res.Err != nil || res.Errors != 0 {
		t.Fatalf("run: %v, %d summarize errors", res.Err, res.Errors)
	}
	windows, err := res.Windows("srvip")
	if res.SimStats.Transactions == 0 || err != nil || len(windows) == 0 {
		t.Fatalf("stats=%+v windows=%d err=%v", res.SimStats, len(windows), err)
	}
	total, err := res.Total("srvip")
	if err != nil {
		t.Fatal(err)
	}
	if len(total.Rows) == 0 {
		t.Fatal("no rows in aggregate")
	}
	cdf := dnsobs.DistributionCDF(total)
	if cdf.ShareOfTopN(len(cdf.All)) < 0.999 {
		t.Errorf("CDF does not reach 1: %f", cdf.ShareOfTopN(len(cdf.All)))
	}
	rows := dnsobs.ASTable(total, res.Sim.Infra.Routing, 5)
	if len(rows) == 0 {
		t.Error("empty AS table")
	}
}

func TestFacadeHelpers(t *testing.T) {
	if got := dnsobs.ETLD("www.bbc.co.uk"); got != "co.uk." {
		t.Errorf("ETLD = %q", got)
	}
	if got := dnsobs.ESLD("www.bbc.co.uk"); got != "bbc.co.uk." {
		t.Errorf("ESLD = %q", got)
	}
	if dnsobs.Minutely.Seconds() != 60 || dnsobs.Hourly.Seconds() != 3600 {
		t.Error("level seconds wrong")
	}
	aggs := dnsobs.StandardAggregations(1)
	if len(aggs) != 8 {
		t.Errorf("standard aggregations = %d", len(aggs))
	}
}
