// Web status: run the Observatory over synthetic traffic with the
// sharded engine, whose windows are stored from an engine goroutine,
// and serve the newest stored top-k lists over HTTP — the paper's
// planned public web interface over its snapshot archive, end to end.
// The program prints a few polls of its own API and exits.
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"

	"dnsobservatory/dnsobs"
	"dnsobservatory/internal/metrics"
	"dnsobservatory/internal/webui"
)

func main() {
	// Serve on an ephemeral port.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	// Every window goes into a columnar store, and the web UI answers
	// from it.
	dir, err := os.MkdirTemp("", "webstatus-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	store, err := dnsobs.NewColumnarSnapshotStore(dir)
	if err != nil {
		log.Fatal(err)
	}
	// One registry shared by the engine (which publishes ingest and
	// window counts) and the web UI (whose /healthz and /metrics read
	// them) — no per-transaction counting hook to remember.
	reg := metrics.Default()
	ui := webui.NewServer(store)
	ui.Registry = reg
	srv := &http.Server{Handler: ui.Handler()}
	go srv.Serve(ln)
	base := "http://" + ln.Addr().String()
	fmt.Printf("web UI listening on %s\n\n", base)

	// Observatory over the sharded engine.
	cfg := dnsobs.DefaultPipelineConfig()
	cfg.SkipFreshObjects = false
	cfg.Metrics = reg
	sp := dnsobs.OpenSpine(dnsobs.SpineConfig{
		Store: store,
		Aggs: []dnsobs.Aggregation{
			{Name: "srvip", K: 1000, Key: dnsobs.SrvIPKey},
			{Name: "qtype", K: 32, Key: dnsobs.QTypeKey, NoAdmitter: true},
		},
		Engine:  cfg,
		Sharded: true,
	})

	simCfg := dnsobs.DefaultSimulationConfig()
	simCfg.Duration = 180
	simCfg.QPS = 1000
	simCfg.Resolvers = 80
	simCfg.SLDs = 800

	sim := dnsobs.NewSimulation(simCfg)
	stats := sim.Run(func(tx *dnsobs.Transaction) {
		sp.Ingest(tx, tx.QueryTime.Sub(simCfg.Start).Seconds())
	})
	if err := sp.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("streamed %d transactions through the pipeline\n\n", stats.Transactions)

	// Poll our own API like a dashboard would.
	for _, path := range []string{
		"/healthz",
		"/api/aggregations",
		"/api/top/qtype?n=5",
		"/api/top/srvip?n=3&col=nxd",
	} {
		resp, err := http.Get(base + path)
		if err != nil {
			log.Fatal(err)
		}
		var v any
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			log.Fatal(err)
		}
		resp.Body.Close()
		pretty, _ := json.MarshalIndent(v, "  ", "  ")
		fmt.Printf("GET %s\n  %s\n\n", path, pretty)
	}

	_ = srv.Close()
}
