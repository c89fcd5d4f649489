package experiments

import (
	"fmt"
	"io"
	"net/netip"
	"text/tabwriter"

	"dnsobservatory/internal/analysis"
	"dnsobservatory/internal/observatory"
	"dnsobservatory/internal/simnet"
)

func mustAddr(s string) netip.Addr { return netip.MustParseAddr(s) }

// Fig9 configures the paper's negative-caching pathologies — the
// network-time domains (neg TTL 50x below the A TTL), the ad network
// (5x) and the CDN update host (6x) — on popular v4-only domains, and
// correlates the A-TTL/neg-TTL quotient with the share of empty AAAA
// responses over the top 200 FQDNs.
func (c *Context) Fig9(w io.Writer) error {
	simCfg := simnet.DefaultConfig()
	simCfg.Seed = c.opts.Seed + 300
	simCfg.Duration = 1800 * c.opts.Scale
	if simCfg.Duration < 600 {
		simCfg.Duration = 600
	}
	simCfg.HEShare = 0.7
	simCfg.SLDs = 1500
	var pathological []string
	obsCfg := observatory.DefaultConfig()
	obsCfg.SkipFreshObjects = false
	res := c.run(simCfg, obsCfg, func(sim *simnet.Sim) []observatory.Aggregation {
		cases := []struct {
			idx    int
			attl   uint32
			negttl uint32
		}{
			{8, 750, 15},    // "time-a": rank-81 analogue, quotient 50
			{11, 600, 15},   // "time-b": rank-116 analogue
			{14, 300, 60},   // "ads": rank-141 analogue, quotient 5
			{17, 3600, 600}, // "cdn-updates": rank-167 analogue, quotient 6
			{20, 600, 120},  // another low-negTTL host
		}
		for _, cs := range cases {
			z := sim.Universe.SLDs[cs.idx]
			z.ATTL = cs.attl
			z.NegTTL = cs.negttl
			z.IPv6 = false
			for _, f := range z.FQDNs {
				f.V6Override = 0
			}
			pathological = append(pathological, z.FQDNs[0].Name)
		}
		return []observatory.Aggregation{
			{Name: "qname", K: 50_000, Key: observatory.QNameKey},
		}
	})
	snap, err := res.Total("qname")
	if err != nil {
		return err
	}
	rows := analysis.HappyEyeballs(snap, 200)
	fmt.Fprintf(w, "Fig9: top %d FQDNs by traffic — empty AAAA responses vs. negative-caching TTL\n", len(rows))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  rank\tFQDN\tempty-AAAA\tA TTL\tneg TTL\tquotient")
	for _, r := range rows {
		if r.EmptyAAAA < 0.25 {
			continue
		}
		fmt.Fprintf(tw, "  %d\t%s\t%.0f%%\t%.0f\t%.0f\t%.1f\n",
			r.Rank, r.Key, 100*r.EmptyAAAA, r.ATTL, r.NegTTL, r.Quotient)
	}
	tw.Flush()
	worst := analysis.WorstOffenders(rows, 0.7)
	fmt.Fprintf(w, "  FQDNs with >70%% empty responses: %d (pathological configs: %v)\n",
		len(worst), pathological)
	return nil
}

// V6On reproduces §5.3: ten popular v4-only FQDNs enable IPv6 mid-run;
// their empty-AAAA share collapses while query volume stays flat
// (their negative TTLs match their A TTLs).
func (c *Context) V6On(w io.Writer) error {
	simCfg := simnet.DefaultConfig()
	simCfg.Seed = c.opts.Seed + 400
	simCfg.Duration = 1800 * c.opts.Scale
	if simCfg.Duration < 600 {
		simCfg.Duration = 600
	}
	simCfg.HEShare = 0.7
	simCfg.SLDs = 1500
	mid := simCfg.Duration / 2
	var enabled []string
	obsCfg := observatory.DefaultConfig()
	obsCfg.SkipFreshObjects = false
	res := c.run(simCfg, obsCfg, func(sim *simnet.Sim) []observatory.Aggregation {
		for i := 0; i < 10; i++ {
			z := sim.Universe.SLDs[5+i]
			z.ATTL = 120
			z.NegTTL = 120 // equal TTLs: volume must not change (§5.3)
			z.IPv6 = false
			for _, f := range z.FQDNs {
				f.V6Override = 0
			}
			sim.Schedule(simnet.V6EnableEvent(mid, z.Name))
			enabled = append(enabled, z.FQDNs[0].Name)
		}
		return []observatory.Aggregation{
			{Name: "qname", K: 50_000, Key: observatory.QNameKey},
		}
	})
	before, err := res.TotalBetween("qname", 0, int64(mid))
	if err != nil {
		return err
	}
	after, err := res.TotalBetween("qname", int64(mid), int64(simCfg.Duration)+60)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "§5.3: FQDNs enabling IPv6 mid-observation")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  FQDN\tempty-AAAA before\tafter\tqueries/min before\tafter")
	var okCount int
	for _, name := range enabled {
		eff, ok := analysis.V6Effect(before, after, name)
		if !ok {
			continue
		}
		okCount++
		fmt.Fprintf(tw, "  %s\t%.0f%%\t%.0f%%\t%.1f\t%.1f\n",
			eff.Key, 100*eff.EmptyShareBefore, 100*eff.EmptyShareAfter,
			eff.HitsBefore, eff.HitsAfter)
	}
	tw.Flush()
	fmt.Fprintf(w, "  %d/%d enabled FQDNs observed in both periods\n", okCount, len(enabled))
	return nil
}
