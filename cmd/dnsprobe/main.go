// Command dnsprobe is the active measurement plane: a high-concurrency
// iterative prober that resolves a target feed against the simnet
// population's authoritative servers — shared NS cache, singleflight
// dedup, per-nameserver politeness — and emits every wire exchange as
// SIE transactions to a file, stdout, or a dnsobs collector, closing
// the loop between passive observation and active verification.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"dnsobservatory/internal/chaos"
	"dnsobservatory/internal/cli"
	"dnsobservatory/internal/dnswire"
	"dnsobservatory/internal/metrics"
	"dnsobservatory/internal/probe"
	"dnsobservatory/internal/sie"
	"dnsobservatory/internal/simnet"
	"dnsobservatory/internal/tsv"
	"dnsobservatory/internal/webui"
)

func main() {
	os.Exit(cli.Exit("dnsprobe", run(os.Args[1:], os.Stderr)))
}

// run is main minus the exit code, so tests drive the full flag-to-
// summary path in process.
func run(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("dnsprobe", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		slds  = fs.Int("slds", 4000, "registered domains in the probed population")
		seed  = fs.Int64("seed", 1, "population and probe-order seed")
		count = fs.Int("count", 0, "population sweep size (0 probes every hostname once); ignored with -targets or -from-store")

		targets   = fs.String("targets", "", "file of probe targets, one qname per line ('-' for stdin)")
		fromStore = fs.String("from-store", "", "closed loop: probe the top keys of an aggregation in this snapshot store directory")
		backend   = fs.String("backend", tsv.BackendTSV, "snapshot store backend with -from-store (tsv or columnar)")
		agg       = fs.String("agg", "esld", "aggregation whose keys feed the probe queue with -from-store")
		top       = fs.Int("top", 1000, "how many top keys to probe with -from-store")
		qtype     = fs.String("qtype", "A", "query type for swept and store-fed targets")

		workers    = fs.Int("workers", 512, "concurrent resolver workers")
		queue      = fs.Int("queue", 4096, "probe queue depth")
		timeout    = fs.Duration("timeout", time.Second, "per-exchange timeout before a reply counts as lost")
		retries    = fs.Int("retries", 2, "extra attempts after a timeout or SERVFAIL")
		rate       = fs.Float64("rate", 4000, "per-server token-bucket limit for leaf authoritatives, queries/sec (negative disables)")
		hierRate   = fs.Float64("hier-rate", 500, "per-server limit for root and TLD servers, queries/sec (negative disables)")
		rateWait   = fs.Duration("rate-wait", 250*time.Millisecond, "longest a probe waits for a rate token before dropping as rate-limited")
		delayScale = fs.Float64("delay-scale", 0, "fraction of each server's modeled delay really slept (0 = CPU-bound)")

		out        = fs.String("o", "", "write the probe transaction stream to this file ('-' for stdout)")
		connect    = fs.String("connect", "", "stream transactions to a dnsobs collector (host:port, tcp:host:port or unix:/path)")
		sensorName = fs.String("sensor", "dnsprobe", "sensor name sent in the transport handshake (with -connect)")
		sensorWAL  = fs.String("wal", "", "with -connect: spill unacknowledged batches to a write-ahead log in this directory")

		httpAddr = fs.String("http", "", "serve /metrics and /healthz (with the probe engine status) on this address")

		chaosLoss     = fs.Float64("chaos-loss", 0, "inject reply loss on the probe path at this rate (0..1)")
		chaosDelay    = fs.Float64("chaos-delay", 0, "inject past-timeout reply delays at this rate (0..1)")
		chaosServfail = fs.Float64("chaos-servfail", 0, "inject SERVFAIL rewrites at this rate (0..1)")
		chaosTrunc    = fs.Float64("chaos-trunc", 0, "inject UDP truncation (forcing TCP retries) at this rate (0..1)")
		chaosSeed     = fs.Int64("chaos-seed", 1, "fault injector seed (replay a failing run)")
	)
	if err := fs.Parse(args); err != nil {
		return cli.Usage(err)
	}

	qt, err := parseQType(*qtype)
	if err != nil {
		return err
	}

	// The population: a frozen, concurrency-safe authoritative plane
	// over the same universe dnsgen generates passive traffic from.
	cfg := simnet.DefaultConfig()
	cfg.SLDs = *slds
	cfg.Seed = *seed
	cfg.QPS = 1
	cfg.Resolvers = 1
	cfg.Duration = 1
	cfg.ColdCaches = true
	sim := simnet.New(cfg)
	auth := simnet.NewAuthority(sim, simnet.AuthorityConfig{DelayScale: *delayScale})

	var exch probe.Exchanger = auth
	var inj *chaos.Injector
	if *chaosLoss > 0 || *chaosDelay > 0 || *chaosServfail > 0 || *chaosTrunc > 0 {
		inj = chaos.New(chaos.Config{
			Seed:              *chaosSeed,
			ProbeLossRate:     *chaosLoss,
			ProbeDelayRate:    *chaosDelay,
			ProbeServFailRate: *chaosServfail,
			ProbeTruncateRate: *chaosTrunc,
			ProbeDelay:        2 * *timeout,
		})
		exch = inj.WrapExchanger(auth)
	}

	// The transaction sink: collector, fleet, file, stdout, or none.
	var sink *cli.Sink[*sie.Transaction]
	var emit func(*sie.Transaction)
	if *connect != "" || *out != "" {
		sink, err = cli.OpenSink(cli.SinkConfig{Out: *out, Connect: *connect, Sensor: *sensorName, WALDir: *sensorWAL})
		if err != nil {
			return err
		}
		emit = sink.Emit
	}

	reg := metrics.NewRegistry()
	e := probe.New(probe.Config{
		Exchanger:     exch,
		Roots:         auth.RootAddrs(),
		Workers:       *workers,
		QueueDepth:    *queue,
		Timeout:       *timeout,
		Retries:       *retries,
		AuthRate:      *rate,
		HierarchyRate: *hierRate,
		MaxRateWait:   *rateWait,
		Seed:          *seed,
		Metrics:       reg,
		OnTransaction: emit,
	})

	if *httpAddr != "" {
		ui := webui.NewServer(nil)
		ui.Registry = reg
		ui.Probe = func() any { return e.Status() }
		srv, err := cli.Serve(*httpAddr, ui.Handler())
		if err != nil {
			return err
		}
		defer srv.Close()
	}

	// The target feed, in priority order of trust: an explicit list, the
	// store's top keys (the passive pipeline naming what to verify), or
	// a sweep of the population's own hostnames.
	submitted := 0
	submit := func(qname string) error {
		qname = strings.TrimSpace(strings.ToLower(qname))
		if qname == "" || strings.HasPrefix(qname, "#") {
			return nil
		}
		if !strings.HasSuffix(qname, ".") {
			qname += "."
		}
		if err := e.Submit(probe.Target{QName: qname, QType: qt}); err != nil {
			return err
		}
		submitted++
		return nil
	}
	switch {
	case *targets != "":
		f, err := cli.Open(*targets, os.Stdin)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if err := submit(sc.Text()); err != nil {
				return err
			}
		}
		if err := sc.Err(); err != nil {
			return err
		}
	case *fromStore != "":
		store, err := tsv.NewStoreBackend(*fromStore, *backend)
		if err != nil {
			return err
		}
		defer store.Close()
		res, err := tsv.NewEngine(store).Run(tsv.Query{Agg: *agg, Level: tsv.Minutely, K: *top})
		if err != nil {
			return err
		}
		for _, row := range res.Rows {
			if err := submit(row.Key); err != nil {
				return err
			}
		}
	default:
		n := *count
		for _, zone := range sim.Universe.SLDs {
			for _, f := range zone.FQDNs {
				if n > 0 && submitted >= n {
					break
				}
				if err := submit(f.Name); err != nil {
					return err
				}
			}
		}
	}

	start := time.Now()
	if err := e.Close(); err != nil {
		return err
	}
	if err := sink.Close(); err != nil {
		return err
	}

	st := e.Status()
	fmt.Fprintf(stderr, "dnsprobe: %d probes (%d answered, %d timeout, %d rate-limited, %d merged) in %v\n",
		st.Issued, st.Answered, st.Timeouts, st.RateLimited, st.Merged, time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(stderr, "dnsprobe: %d wire queries, %d cache hits (%d negative), %d retries (%d servfail), %d tcp retries\n",
		st.WireQueries, st.CacheHits, st.NegativeHits, st.Retries, st.ServFailRetries, st.TCPRetries)
	if inj != nil {
		cs := inj.Stats()
		fmt.Fprintf(stderr, "dnsprobe: chaos: %d faults (lost %d, delayed %d, servfail %d, truncated %d)\n",
			cs.Total(), cs.ProbeLost, cs.ProbeDelayed, cs.ProbeServFails, cs.ProbeTruncated)
	}
	return nil
}

// parseQType maps a type name to its dnswire constant.
func parseQType(s string) (dnswire.Type, error) {
	for _, t := range []dnswire.Type{
		dnswire.TypeA, dnswire.TypeAAAA, dnswire.TypeNS,
		dnswire.TypeSOA, dnswire.TypeMX, dnswire.TypePTR, dnswire.TypeTXT,
	} {
		if strings.EqualFold(t.String(), s) {
			return t, nil
		}
	}
	return 0, fmt.Errorf("unsupported -qtype %q", s)
}
