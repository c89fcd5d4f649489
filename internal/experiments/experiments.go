package experiments

import (
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"text/tabwriter"

	"dnsobservatory/internal/analysis"
	"dnsobservatory/internal/observatory"
	"dnsobservatory/internal/simnet"
	"dnsobservatory/internal/tsv"
)

// Options scales and seeds the experiment scenarios.
type Options struct {
	// Scale multiplies scenario duration; 1.0 is the standard
	// laptop-scale run (the paper's absolute scale is 4 months of
	// 200 k tx/s, far beyond a test harness).
	Scale float64
	// Seed makes runs reproducible.
	Seed int64
	// OutDir receives binary artifacts (the Fig. 6 PGM heatmap). Empty
	// disables artifact writing.
	OutDir string
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Context caches the shared main-scenario run so that fig2, tab1, tab2,
// fig3 and tab3 do not regenerate identical traffic. Every scenario it
// runs writes its windows into a columnar store of its own, under one
// temporary directory that Close removes; the experiments read them back
// through the query engine.
type Context struct {
	opts   Options
	main   *analysis.RunResult
	dir    string       // the stores' directory, made on first use
	stores []*tsv.Store // every store made so far, named by its number
}

// NewContext prepares an experiment context.
func NewContext(opts Options) *Context {
	return &Context{opts: opts.withDefaults()}
}

// Close closes every store the context has made, so none holds a file
// open, and removes them.
func (c *Context) Close() {
	for _, st := range c.stores {
		st.Close()
	}
	os.RemoveAll(c.dir) // "" removes nothing
	c.dir, c.main, c.stores = "", nil, nil
}

// store makes a new store of the context's, under one temporary
// directory made on first use.
func (c *Context) store() (*tsv.Store, error) {
	if c.dir == "" {
		dir, err := os.MkdirTemp("", "experiments-")
		if err != nil {
			return nil, err
		}
		c.dir = dir
	}
	st, err := tsv.NewColumnarStore(filepath.Join(c.dir, strconv.Itoa(len(c.stores)+1)))
	if err == nil {
		c.stores = append(c.stores, st)
	}
	return st, err
}

// run simulates one scenario into a new store of the context's. A store
// that cannot be made is the run's error.
func (c *Context) run(simCfg simnet.Config, obsCfg observatory.Config, aggsFor func(*simnet.Sim) []observatory.Aggregation) *analysis.RunResult {
	st, err := c.store()
	if err != nil {
		return &analysis.RunResult{Err: err}
	}
	return analysis.RunWith(st, simCfg, obsCfg, aggsFor)
}

// mainScenario runs the main scenario, once, into a store of the
// context's.
func (c *Context) mainScenario() *analysis.RunResult {
	if c.main == nil {
		c.main = c.run(c.mainConfig())
	}
	return c.main
}

// MainInto runs the main scenario straight into st, which the
// experiments that share it then read: cmd/experiments -ingest.
func (c *Context) MainInto(st *tsv.Store) *analysis.RunResult {
	simCfg, obsCfg, aggsFor := c.mainConfig()
	c.main = analysis.RunWith(st, simCfg, obsCfg, aggsFor)
	return c.main
}

// mainConfig is the main scenario, the default Observatory deployment:
// the full workload mix, the standard aggregations, plus the qmin pair
// dataset.
func (c *Context) mainConfig() (simnet.Config, observatory.Config, func(*simnet.Sim) []observatory.Aggregation) {
	simCfg := simnet.DefaultConfig()
	simCfg.Seed = c.opts.Seed
	simCfg.Duration = 600 * c.opts.Scale
	if simCfg.Duration < 120 {
		simCfg.Duration = 120
	}
	obsCfg := observatory.DefaultConfig()
	obsCfg.SkipFreshObjects = false
	return simCfg, obsCfg, func(sim *simnet.Sim) []observatory.Aggregation {
		return append(observatory.StandardAggregations(0.1),
			analysis.QMinAggregation("qminpairs", 30_000, sim))
	}
}

// Experiment is one regenerable artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(*Context, io.Writer) error
}

// Registry lists every experiment in paper order.
var Registry = []Experiment{
	{"fig2", "Fig. 2: traffic distributions for Top-k objects", (*Context).Fig2},
	{"tab1", "Table 1: top 10 AS organizations by transaction volume", (*Context).Table1},
	{"tab2", "Table 2: top 10 QTYPEs", (*Context).Table2},
	{"fig3", "Fig. 3: response delays and network hops", (*Context).Fig3},
	{"tab3", "Table 3 / §3.6: QNAME minimization deployment", (*Context).Table3},
	{"fig4", "Fig. 4: data representativeness vs. resolver sample", (*Context).Fig4},
	{"fig5", "Fig. 5: nameservers seen over monitoring time", (*Context).Fig5},
	{"fig6", "Fig. 6: Hilbert heatmap of nameserver /24 density", (*Context).Fig6},
	{"fig7", "Fig. 7: TTL slash causing a query-rate jump", (*Context).Fig7},
	{"fig8", "Fig. 8: TTL changes vs. query-rate changes", (*Context).Fig8},
	{"tab4", "Table 4: classified TTL-change events", (*Context).Table4},
	{"fig9", "Fig. 9: negative-caching TTLs vs. empty AAAA responses", (*Context).Fig9},
	{"v6on", "§5.3: effect of enabling IPv6", (*Context).V6On},
	{"ablate", "ablations: admission guard, rate decay, HLL precision", (*Context).Ablate},
	{"detect", "detection: information-content heavy hitters and newly-observed domains vs ground truth", (*Context).Detect},
	{"encdns", "encrypted DNS: closed-world traffic analysis per transport mode and padding policy", (*Context).EncDNS},
}

// Find returns the experiment with the given id, or nil.
func Find(id string) *Experiment {
	for i := range Registry {
		if Registry[i].ID == id {
			return &Registry[i]
		}
	}
	return nil
}

// Fig2 prints the Fig. 2 CDFs for the srvip, qname and esld top lists.
func (c *Context) Fig2(w io.Writer) error {
	res := c.mainScenario()
	for _, sub := range []struct{ agg, label string }{
		{"srvip", "a) nameservers"},
		{"qname", "b) FQDNs"},
		{"esld", "c) effective SLDs"},
	} {
		snap, err := res.Total(sub.agg)
		if err != nil {
			return err
		}
		cdf := analysis.DistributionCDF(snap)
		fmt.Fprintf(w, "Fig2%s ranked by traffic (%d objects, %.1f%% of stream captured)\n",
			sub.label, len(cdf.Ranks), 100*cdf.CapturedShare)
		fmt.Fprintf(w, "  splits: NOERROR+data %.1f%%  NXDOMAIN %.1f%%  NODATA %.1f%%\n",
			100*cdf.OKDataShare, 100*cdf.NXDShare, 100*cdf.NoDataShare)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  rank\tall\tNXDOMAIN\tNOERROR+data\tNODATA")
		for _, rank := range logRanks(len(cdf.Ranks)) {
			i := rank - 1
			fmt.Fprintf(tw, "  %d\t%.3f\t%.3f\t%.3f\t%.3f\n",
				rank, cdf.All[i], cdf.NXD[i], cdf.OKData[i], cdf.NoData[i])
		}
		tw.Flush()
		fmt.Fprintf(w, "  half of the traffic is handled by the top %d objects (%.1f%% of the list)\n\n",
			cdf.RankForShare(0.5), 100*float64(cdf.RankForShare(0.5))/float64(len(cdf.Ranks)))
	}
	return nil
}

// logRanks picks log-spaced ranks 1,2,5,10,… up to n.
func logRanks(n int) []int {
	var out []int
	for _, base := range []int{1, 2, 5} {
		for m := 1; ; m *= 10 {
			r := base * m
			if r > n {
				break
			}
			out = append(out, r)
		}
	}
	sort.Ints(out)
	if len(out) == 0 || out[len(out)-1] != n {
		out = append(out, n)
	}
	return out
}

// Table1 prints the AS-organization ranking.
func (c *Context) Table1(w io.Writer) error {
	res := c.mainScenario()
	snap, err := res.Total("srvip")
	if err != nil {
		return err
	}
	rows := analysis.ASTable(snap, res.Sim.Infra.Routing, 10)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "#\tName\tASes\tglobal\tservers\tdelay\thops")
	for i, r := range rows {
		fmt.Fprintf(tw, "%d\t%s\t%d\t%.1f%%\t%d\t%.1f\t%.1f\n",
			i+1, r.Name, r.ASes, 100*r.Global, r.Servers, r.DelayMs, r.Hops)
	}
	tw.Flush()
	fmt.Fprintf(w, "top 10 organizations receive %.1f%% of observed DNS transactions\n",
		100*analysis.TopOrgsShare(rows, 10))
	return nil
}

// Table2 prints the QTYPE table.
func (c *Context) Table2(w io.Writer) error {
	res := c.mainScenario()
	snap, err := res.Total("qtype")
	if err != nil {
		return err
	}
	rows := analysis.QTypeTable(snap, 10)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "#\tQTYPE\tglobal\tdata\tnodata\tnxd\terr\tqdots\tTLDs\teSLDs\tFQDNs\tvalid\tTTL\tservers\tdelay\thops\tsize")
	for i, r := range rows {
		fmt.Fprintf(tw, "%d\t%s\t%.1f%%\t%.1f%%\t%.1f%%\t%.1f%%\t%.1f%%\t%.1f\t%.0f\t%.0f\t%.0f\t%.0f%%\t%.0f\t%.0f\t%.0f\t%.1f\t%.0f\n",
			i+1, r.QType, 100*r.Global, 100*r.Data, 100*r.NoData, 100*r.NXD, 100*r.Err,
			r.QDots, r.TLDs, r.ESLDs, r.FQDNs, 100*r.Valid, r.TTL, r.Srvs, r.Delay, r.Hops, r.Size)
	}
	return tw.Flush()
}

// Fig3 prints the delay analyses: the Fig. 3a sections, the Fig. 3b
// rank groups, and the Fig. 3c/d root and gTLD letter quartiles.
func (c *Context) Fig3(w io.Writer) error {
	res := c.mainScenario()
	snap, err := res.Total("srvip")
	if err != nil {
		return err
	}
	medians, sec := analysis.DelayCDF(snap)
	fmt.Fprintf(w, "Fig3a) median response delay across %d nameservers\n", len(medians))
	fmt.Fprintf(w, "  sections: 0-5ms %.1f%%  5-35ms %.1f%%  35-350ms %.1f%%  >350ms %.1f%%\n",
		100*sec.Colocated, 100*sec.Regional, 100*sec.Distant, 100*sec.Impaired)
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		fmt.Fprintf(w, "  p%.0f = %.1f ms\n", q*100, quantileOf(medians, q))
	}

	fmt.Fprintln(w, "Fig3b) delay and hops vs. nameserver rank (groups of 100)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  rank\tdelay[ms]\thops")
	groups := analysis.DelayByRank(snap, 2500, 100)
	for _, g := range groups {
		fmt.Fprintf(tw, "  %d\t%.1f\t%.1f\n", g.RankLo, g.MeanDelay, g.MeanHops)
	}
	tw.Flush()

	for _, sub := range []struct {
		label   string
		servers []*simnet.Server
	}{
		{"Fig3c) root nameservers", res.Sim.Infra.RootServers},
		{"Fig3d) gTLD nameservers", res.Sim.Infra.GTLDServers},
	} {
		addrs := serverAddrs(sub.servers)
		stats := analysis.LetterStats(snap, addrs)
		fmt.Fprintln(w, sub.label)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  letter\tq25\tmedian\tq75\thops\tNXD")
		for _, ls := range stats {
			fmt.Fprintf(tw, "  %c\t%.1f\t%.1f\t%.1f\t%.1f\t%.0f%%\n",
				ls.Letter, ls.Q25, ls.Q50, ls.Q75, ls.Hops, 100*ls.NXD)
		}
		tw.Flush()
		share, nxd := analysis.GroupShare(snap, addrs)
		fmt.Fprintf(w, "  group handles %.1f%% of all queries, %.1f%% of them NXDOMAIN\n",
			100*share, 100*nxd)
	}
	return nil
}

func serverAddrs(servers []*simnet.Server) (out []netip.Addr) {
	for _, s := range servers {
		out = append(out, s.Addr)
	}
	return out
}

// Table3 prints the qmin deployment matrix and shares.
func (c *Context) Table3(w io.Writer) error {
	res := c.mainScenario()
	snap, err := res.Total("qminpairs")
	if err != nil {
		return err
	}
	roots, tlds, whitelist := analysis.HierarchySets(res.Sim)
	qr := analysis.QMin(snap, roots, tlds, whitelist)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "pairs with\tobserved\tnon-qmin\tpossible-qmin")
	fmt.Fprintf(tw, "root NS\t%d\t%d\t%d\n", qr.RootPairs, qr.RootNonQMin, qr.RootPairs-qr.RootNonQMin)
	fmt.Fprintf(tw, "TLD NS\t%d\t%d\t%d\n", qr.TLDPairs, qr.TLDNonQMin, qr.TLDPairs-qr.TLDNonQMin)
	tw.Flush()
	fmt.Fprintf(w, "strictly qmin resolvers: %d %v\n", len(qr.QMinResolver), qr.QMinResolver)
	fmt.Fprintf(w, "qmin traffic share: root %.4f%%, TLD %.4f%%\n",
		100*qr.RootQMinShare, 100*qr.TLDQMinShare)
	return nil
}

func quantileOf(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
