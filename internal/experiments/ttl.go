package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"dnsobservatory/internal/analysis"
	"dnsobservatory/internal/dnswire"
	"dnsobservatory/internal/observatory"
	"dnsobservatory/internal/publicsuffix"
	"dnsobservatory/internal/sie"
	"dnsobservatory/internal/simnet"
)

// ttlScenarioBase is the simulation config shared by the §4 experiments.
func (c *Context) ttlScenarioBase(duration float64) simnet.Config {
	cfg := simnet.DefaultConfig()
	cfg.Seed = c.opts.Seed + 200
	cfg.Duration = duration * c.opts.Scale
	if cfg.Duration < 600 {
		cfg.Duration = 600
	}
	cfg.SLDs = 1500
	return cfg
}

// esldAggs is the single-aggregation set used by the §4 experiments.
func esldAggs(k int) []observatory.Aggregation {
	return []observatory.Aggregation{
		{Name: "esld", K: k, Key: observatory.ESLDKeyFunc(nil)},
	}
}

// Fig7 reproduces the xmsecu.com case: one domain slashes its TTL and
// its cache-miss query rate jumps.
func (c *Context) Fig7(w io.Writer) error {
	simCfg := c.ttlScenarioBase(1800)
	cut := simCfg.Duration * 0.45
	// The pre-cut TTL must be able to expire within the observation, as
	// in the real event (600 s against days of data).
	ttlBefore := uint32(600)
	if float64(ttlBefore) > simCfg.Duration/3 {
		ttlBefore = uint32(simCfg.Duration / 3)
	}
	var target string
	obsCfg := observatory.DefaultConfig()
	obsCfg.SkipFreshObjects = false
	res := c.run(simCfg, obsCfg, func(sim *simnet.Sim) []observatory.Aggregation {
		// The "xmsecu.com" analog: a popular surveillance-device domain.
		z := sim.Universe.SLDs[4]
		z.ATTL = ttlBefore
		target = z.Name
		sim.Schedule(simnet.TTLChangeEvent(cut, target, 10))
		return esldAggs(20000)
	})
	windows, err := res.Windows("esld")
	if err != nil {
		return err
	}
	series := analysis.TTLSeries(windows, target)
	fmt.Fprintf(w, "Fig7: %s slashes TTL %d -> 10 s at t=%.0fs\n", target, ttlBefore, cut)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  minute\tqueries/min\tTTL")
	stride := len(series)/24 + 1
	for i := 0; i < len(series); i += stride {
		p := series[i]
		fmt.Fprintf(tw, "  %d\t%.0f\t%.0f\n", p.Start/60, p.Hits, p.TopTTL)
	}
	tw.Flush()
	before, after := splitMeans(series, int64(cut))
	fmt.Fprintf(w, "  mean rate before %.1f/min, after %.1f/min (x%.1f)\n",
		before, after, safeRatio(after, before))
	return nil
}

func splitMeans(series []analysis.TTLSeriesPoint, cut int64) (before, after float64) {
	var nb, na int
	for _, p := range series {
		if p.Start < cut {
			before += p.Hits
			nb++
		} else {
			after += p.Hits
			na++
		}
	}
	if nb > 0 {
		before /= float64(nb)
	}
	if na > 0 {
		after /= float64(na)
	}
	return before, after
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Fig8 schedules TTL changes on dozens of popular domains at mid-run —
// some paired with PRSD attacks so their query rate rises despite a TTL
// increase — and correlates TTL change with query-rate change.
func (c *Context) Fig8(w io.Writer) error {
	simCfg := c.ttlScenarioBase(2400)
	simCfg.Mix.PRSD = 0.08 // attacks make the Fig. 8 outliers visible
	mid := simCfg.Duration / 2
	type plan struct {
		idx    int
		factor float64
		prsd   bool
	}
	var plans []plan
	for i := 0; i < 30; i++ {
		plans = append(plans, plan{idx: 5 + i, factor: 0.1}) // TTL decrease
	}
	for i := 0; i < 20; i++ {
		plans = append(plans, plan{idx: 40 + i, factor: 10}) // TTL increase
	}
	for i := 0; i < 8; i++ {
		plans = append(plans, plan{idx: 65 + i, factor: 10, prsd: true}) // NXD-driven
	}
	obsCfg := observatory.DefaultConfig()
	obsCfg.SkipFreshObjects = false
	res := c.run(simCfg, obsCfg, func(sim *simnet.Sim) []observatory.Aggregation {
		for _, p := range plans {
			z := sim.Universe.SLDs[p.idx]
			// Start from a cacheable-but-expiring TTL so both halves
			// observe steady-state miss rates.
			z.ATTL = 120
			sim.Schedule(simnet.TTLChangeEvent(mid, z.Name, uint32(120*p.factor)))
			if p.prsd {
				sim.Schedule(simnet.PRSDTargetEvent(mid, z.Name))
			}
		}
		return esldAggs(20000)
	})
	before, err := res.TotalBetween("esld", 0, int64(mid))
	if err != nil {
		return err
	}
	after, err := res.TotalBetween("esld", int64(mid), int64(simCfg.Duration)+60)
	if err != nil {
		return err
	}
	changes := analysis.TTLTrafficChanges(before, after, 100)
	fmt.Fprintf(w, "Fig8: top %d eSLDs by query-rate change that also changed TTL\n", len(changes))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  eSLD\tTTL\tqueries/min\tNXD-driven")
	show := changes
	if len(show) > 20 {
		show = show[:20]
	}
	for _, ch := range show {
		fmt.Fprintf(tw, "  %s\t%.0f->%.0f\t%.1f->%.1f\t%v\n",
			ch.Key, ch.TTLBefore, ch.TTLAfter, ch.HitsBefore, ch.HitsAfter, ch.NXDDriven)
	}
	tw.Flush()
	q := analysis.Quadrants(changes)
	fmt.Fprintf(w, "  TTL down -> queries up: %d, down: %d\n", q.DownUp, q.DownDown)
	fmt.Fprintf(w, "  TTL up   -> queries up: %d (NXD-driven: %d), down: %d\n",
		q.UpUp, q.UpUpNXD, q.UpDown)
	return nil
}

// Table4 schedules the full palette of infrastructure events, detects
// TTL changes in "hourly" aafqdn aggregates, and classifies them against
// the scenario's ground truth (the DNSDB substitute).
func (c *Context) Table4(w io.Writer) error {
	simCfg := c.ttlScenarioBase(2400)
	mid := simCfg.Duration / 2
	gt := analysis.GroundTruth{
		NonConforming: map[string]bool{},
		Renumbered:    map[string]bool{},
		NSChanged:     map[string]bool{},
		ESLDOf:        publicsuffix.ESLD,
	}
	obsCfg := observatory.DefaultConfig()
	obsCfg.SkipFreshObjects = false
	// One pipeline window plays the role of the paper's hour, so the
	// per-window TTL mode is a true hourly mode (§4.2.1 analyzes
	// consecutive hourly files).
	obsCfg.WindowSec = simCfg.Duration / 10
	// The paper detects changes on A and NS record TTLs; keying the
	// authoritative-answer dataset on A transactions avoids the apex
	// qtype mixing (MX/SOA/NS answers carry their own TTLs).
	aafqdnA := func(sum *sie.Summary) (string, bool) {
		if sum.QType != dnswire.TypeA {
			return "", false
		}
		return observatory.AAFQDNKey(sum)
	}
	res := c.run(simCfg, obsCfg, func(sim *simnet.Sim) []observatory.Aggregation {
		slds := sim.Universe.SLDs
		normalize := func(idx int) *simnet.SLD {
			z := slds[idx]
			z.ATTL = 600 // a stable, observable starting TTL
			return z
		}
		for i := 0; i < 6; i++ { // non-conforming servers
			z := normalize(4 + i)
			sim.Schedule(simnet.NonConformingEvent(0, z.Name))
			gt.NonConforming[z.Name] = true
		}
		for i := 0; i < 4; i++ { // renumbering into a cloud
			z := normalize(10 + i)
			addr := fmt.Sprintf("203.0.%d.10", 100+i)
			sim.Schedule(simnet.RenumberEvent(mid, z.Name, mustAddr(addr), 38400))
			gt.Renumbered[z.Name] = true
		}
		{ // provider switch with TTL slash
			z := normalize(15)
			sim.Schedule(simnet.NSChangeEvent(mid, z.Name, "dnsv2.com"))
			sim.Schedule(simnet.TTLChangeEvent(mid, z.Name, 10))
			gt.NSChanged[z.Name] = true
		}
		for i := 0; i < 2; i++ { // plain TTL decrease
			z := normalize(17 + i)
			sim.Schedule(simnet.TTLChangeEvent(mid, z.Name, 60))
		}
		{ // plain TTL increase
			z := normalize(19)
			sim.Schedule(simnet.TTLChangeEvent(mid, z.Name, 3600))
		}
		return []observatory.Aggregation{
			{Name: "aafqdn", K: 20000, Key: aafqdnA},
		}
	})
	hourly, err := res.Windows("aafqdn")
	if err != nil {
		return err
	}
	detected := analysis.DetectTTLChanges(hourly, 0.1)
	classes := analysis.Classify(detected, gt)
	fmt.Fprintf(w, "Table4: %d FQDNs with significant TTL changes across %d hourly files\n",
		len(detected), len(hourly))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  category\tdomains\tFQDNs\texample\tTTL before/after")
	for cls := analysis.ClassNonConforming; cls <= analysis.ClassUnknown; cls++ {
		obs := classes[cls]
		if len(obs) == 0 {
			fmt.Fprintf(tw, "  %s\t0\t0\t-\t-\n", cls)
			continue
		}
		// The paper counts affected domains; one zone change surfaces
		// on every popular FQDN below it.
		zones := map[string]bool{}
		for _, o := range obs {
			zones[publicsuffix.ESLD(o.Key)] = true
		}
		ex := obs[0]
		fmt.Fprintf(tw, "  %s\t%d\t%d\t%s\t%.0f/%.0f\n",
			cls, len(zones), len(obs), ex.Key, ex.TTLBefore, ex.TTLAfter)
	}
	return tw.Flush()
}
