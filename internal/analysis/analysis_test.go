package analysis

import (
	"bytes"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"testing"

	"dnsobservatory/internal/observatory"
	"dnsobservatory/internal/simnet"
	"dnsobservatory/internal/tsv"
)

// storeRoot holds the stores of runs that outlive one test.
var storeRoot string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "analysis-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	storeRoot = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// testRun executes one small scenario shared by several tests.
func testRun(t *testing.T) *RunResult {
	t.Helper()
	st, err := tsv.NewColumnarStore(filepath.Join(storeRoot, "shared"))
	if err != nil {
		t.Fatal(err)
	}
	simCfg := simnet.DefaultConfig()
	simCfg.Duration = 180
	simCfg.QPS = 600
	simCfg.Resolvers = 60
	simCfg.SLDs = 800
	obsCfg := observatory.DefaultConfig()
	obsCfg.SkipFreshObjects = false
	obsCfg.Features.HLLPrecision = 9
	res := RunWith(st, simCfg, obsCfg, func(sim *simnet.Sim) []observatory.Aggregation {
		return append(observatory.StandardAggregations(0.01),
			QMinAggregation("qminpairs", 20000, sim))
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Errors > 0 {
		t.Fatalf("%d summarize errors", res.Errors)
	}
	if res.Parsed < 10000 {
		t.Fatalf("only %d transactions parsed", res.Parsed)
	}
	return res
}

var shared *RunResult

func sharedRun(t *testing.T) *RunResult {
	if shared == nil {
		shared = testRun(t)
	}
	return shared
}

func TestDistributionHeavyTail(t *testing.T) {
	res := sharedRun(t)
	snap, err := res.Total("srvip")
	if err != nil {
		t.Fatal(err)
	}
	cdf := DistributionCDF(snap)
	if len(cdf.All) < 50 {
		t.Fatalf("only %d ranked nameservers", len(cdf.All))
	}
	// Heavy tail: the top 1% of nameservers must carry a large share,
	// and half the traffic must come from a small head (Fig. 2a).
	top1pct := cdf.ShareOfTopN(len(cdf.All) / 100)
	if top1pct < 0.18 {
		t.Errorf("top 1%% of nameservers carry only %.2f of traffic", top1pct)
	}
	if r := cdf.RankForShare(0.5); r > len(cdf.All)/5 {
		t.Errorf("half the traffic needs %d of %d nameservers", r, len(cdf.All))
	}
	// CDFs are monotone and end at 1.
	last := cdf.All[len(cdf.All)-1]
	if last < 0.999 || last > 1.001 {
		t.Errorf("all-CDF ends at %f", last)
	}
	for i := 1; i < len(cdf.All); i++ {
		if cdf.All[i] < cdf.All[i-1]-1e-12 {
			t.Fatal("CDF not monotone")
		}
	}
	// NXDOMAIN concentrates on the most popular servers (the paper's
	// botnet-at-the-gTLDs observation): the top 10 ranked servers hold
	// a large share of all NXDOMAIN traffic, and the TLD hierarchy is
	// present among them.
	if cdf.NXD[9] < 0.25 {
		t.Errorf("top-10 servers hold only %.3f of NXD traffic", cdf.NXD[9])
	}
	hierarchyInTop := false
	for i := 0; i < 10 && i < len(snap.Rows); i++ {
		if a, err := netip.ParseAddr(snap.Rows[i].Key); err == nil && res.Sim.IsHierarchyServer(a) {
			hierarchyInTop = true
			break
		}
	}
	if !hierarchyInTop {
		t.Error("no root/TLD server among the top-10 ranked nameservers")
	}
	if cdf.CapturedShare <= 0.5 {
		t.Errorf("top list captured only %.2f of stream", cdf.CapturedShare)
	}
}

func TestASTableShape(t *testing.T) {
	res := sharedRun(t)
	snap, err := res.Total("srvip")
	if err != nil {
		t.Fatal(err)
	}
	rows := ASTable(snap, res.Sim.Infra.Routing, 10)
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	share := TopOrgsShare(rows, 10)
	if share < 0.35 || share > 0.95 {
		t.Errorf("top-10 orgs share = %.2f, want roughly half", share)
	}
	// The named giants should appear high in the table.
	found := map[string]int{}
	for i, r := range rows {
		found[r.Name] = i + 1
	}
	if found["AMAZON"] == 0 {
		t.Errorf("AMAZON missing from top 10: %+v", rows)
	}
	if found["VERISIGN"] == 0 {
		t.Errorf("VERISIGN missing from top 10 (gTLD volume): %+v", rows)
	}
	for _, r := range rows {
		if r.Global <= 0 || r.Servers == 0 || r.DelayMs <= 0 {
			t.Errorf("degenerate row %+v", r)
		}
	}
}

func TestQTypeTableShape(t *testing.T) {
	res := sharedRun(t)
	snap, err := res.Total("qtype")
	if err != nil {
		t.Fatal(err)
	}
	rows := QTypeTable(snap, 10)
	if len(rows) < 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].QType != "A" {
		t.Errorf("top QTYPE = %s", rows[0].QType)
	}
	if rows[1].QType != "AAAA" {
		t.Errorf("second QTYPE = %s", rows[1].QType)
	}
	byType := map[string]QTypeRow{}
	for _, r := range rows {
		byType[r.QType] = r
	}
	a, aaaa := byType["A"], byType["AAAA"]
	if a.Global < 2*aaaa.Global {
		t.Errorf("A share %.2f not ~3x AAAA %.2f", a.Global, aaaa.Global)
	}
	// AAAA sees far more NoData than A (server-side IPv6 gap).
	if aaaa.NoData < 5*a.NoData {
		t.Errorf("AAAA NoData %.3f vs A %.3f — Happy Eyeballs shape missing", aaaa.NoData, a.NoData)
	}
	// PTR names are deep.
	if ptr, ok := byType["PTR"]; ok {
		if ptr.QDots < 5 {
			t.Errorf("PTR qdots = %.1f", ptr.QDots)
		}
	} else {
		t.Error("PTR missing")
	}
	// NS queries are NXDOMAIN-heavy (PRSD).
	if ns, ok := byType["NS"]; ok {
		if ns.NXD < 0.3 {
			t.Errorf("NS NXD share = %.2f", ns.NXD)
		}
	}
}

func TestDelayAnalyses(t *testing.T) {
	res := sharedRun(t)
	snap, err := res.Total("srvip")
	if err != nil {
		t.Fatal(err)
	}
	medians, sections := DelayCDF(snap)
	if len(medians) == 0 {
		t.Fatal("no medians")
	}
	total := sections.Colocated + sections.Regional + sections.Distant + sections.Impaired
	if total < 0.999 || total > 1.001 {
		t.Errorf("sections sum to %f", total)
	}
	if sections.Distant < 0.3 {
		t.Errorf("distant share %.2f, expected the dominant class", sections.Distant)
	}

	groups := DelayByRank(snap, 0, 50)
	if len(groups) < 2 {
		t.Fatalf("groups = %d", len(groups))
	}

	var rootAddrs []netip.Addr
	for _, s := range res.Sim.Infra.RootServers {
		rootAddrs = append(rootAddrs, s.Addr)
	}
	roots := LetterStats(snap, rootAddrs)
	if len(roots) < 10 {
		t.Fatalf("only %d root letters observed", len(roots))
	}
	for _, ls := range roots {
		if !(ls.Q25 <= ls.Q50 && ls.Q50 <= ls.Q75) {
			t.Errorf("letter %c quartiles not ordered: %v %v %v", ls.Letter, ls.Q25, ls.Q50, ls.Q75)
		}
	}
	// Roots see overwhelmingly NXDOMAIN (junk TLD queries).
	share, nxd := GroupShare(snap, rootAddrs)
	if share <= 0 || share > 0.2 {
		t.Errorf("root traffic share = %.3f", share)
	}
	if nxd < 0.5 {
		t.Errorf("root NXD share = %.2f, want high", nxd)
	}
}

func TestQMinAnalysis(t *testing.T) {
	res := sharedRun(t)
	snap, err := res.Total("qminpairs")
	if err != nil {
		t.Fatal(err)
	}
	roots, tlds, whitelist := HierarchySets(res.Sim)
	qr := QMin(snap, roots, tlds, whitelist)
	if qr.RootPairs == 0 || qr.TLDPairs == 0 {
		t.Fatalf("no pairs: %+v", qr)
	}
	// The scenario has 3 qmin resolvers; the strict pair criterion may
	// additionally accept a resolver whose sampled TLD queries happened
	// to all be apex names, so allow a little slack upward.
	if len(qr.QMinResolver) < 3 || len(qr.QMinResolver) > 6 {
		t.Errorf("qmin resolvers = %v, want ~3", qr.QMinResolver)
	}
	// The paper reports minuscule qmin traffic shares (0.005 % / 0.0001 %).
	if qr.RootQMinShare <= 0 || qr.RootQMinShare > 0.2 {
		t.Errorf("root qmin share = %g", qr.RootQMinShare)
	}
	if qr.RootNonQMin == 0 || qr.TLDNonQMin == 0 {
		t.Error("no non-qmin pairs detected")
	}
}

func TestHappyEyeballsAnalysis(t *testing.T) {
	res := sharedRun(t)
	snap, err := res.Total("qname")
	if err != nil {
		t.Fatal(err)
	}
	rows := HappyEyeballs(snap, 200)
	if len(rows) < 50 {
		t.Fatalf("rows = %d", len(rows))
	}
	worst := WorstOffenders(rows, 0.3)
	// Some pathological neg-TTL domains exist in the default universe.
	if len(worst) == 0 {
		t.Error("no empty-AAAA offenders found")
	}
	for _, w := range worst {
		if w.EmptyAAAA > 1.0001 {
			t.Errorf("share > 1: %+v", w)
		}
	}
}

func TestRecordingRepresentativeness(t *testing.T) {
	cfg := simnet.DefaultConfig()
	cfg.Duration = 60
	cfg.QPS = 500
	cfg.Resolvers = 50
	cfg.SLDs = 500
	rec := Record(simnet.New(cfg))
	if rec.Len() < 5000 {
		t.Fatalf("recorded %d", rec.Len())
	}
	fracs := []float64{0.1, 0.5, 1.0}
	ns := rec.NameserversSeen(fracs, 60, 3, 7)
	if len(ns) != 3 {
		t.Fatal("wrong point count")
	}
	// More vantage points see at least as many nameservers (converging).
	if !(ns[0].Value <= ns[1].Value && ns[1].Value <= ns[2].Value) {
		t.Errorf("not monotone: %+v", ns)
	}
	// Convergence: second half adds less than the first half.
	gain1 := ns[1].Value - ns[0].Value
	gain2 := ns[2].Value - ns[1].Value
	if gain2 > gain1 {
		t.Errorf("no convergence: gains %f then %f", gain1, gain2)
	}

	cov := rec.TopKCoverage(fracs, 100, 60, 3, 7)
	if cov[0].Value < 50 {
		t.Errorf("10%% sample sees only %.1f%% of top-100", cov[0].Value)
	}
	if cov[2].Value < 99.9 {
		t.Errorf("full pool sees %.1f%% of its own top-100", cov[2].Value)
	}

	tlds := rec.TLDsSeen(fracs, 60, 3, 7)
	if tlds[2].Value < 10 {
		t.Errorf("only %.0f TLDs seen", tlds[2].Value)
	}

	tp := rec.ServersOverTime(10)
	if len(tp) < 3 {
		t.Fatalf("time points = %d", len(tp))
	}
	lastT := tp[len(tp)-1]
	if lastT.Count < tp[1].Count {
		t.Error("cumulative count decreased")
	}

	density := rec.PrefixDensity()
	if len(density) == 0 {
		t.Fatal("no prefixes")
	}
	one, two, three := DensityShares(density)
	if one <= 0 || one+two+three > 1.0001 {
		t.Errorf("density shares %f %f %f", one, two, three)
	}
}

func TestHilbert(t *testing.T) {
	// The curve visits every cell exactly once.
	seen := map[[2]uint32]bool{}
	for d := uint32(0); d < 256; d++ {
		x, y := hilbertD2XY(4, d)
		if x >= 16 || y >= 16 {
			t.Fatalf("out of range: %d -> %d,%d", d, x, y)
		}
		seen[[2]uint32{x, y}] = true
	}
	if len(seen) != 256 {
		t.Fatalf("curve visited %d cells", len(seen))
	}
	// Consecutive points are adjacent.
	px, py := hilbertD2XY(4, 0)
	for d := uint32(1); d < 256; d++ {
		x, y := hilbertD2XY(4, d)
		dx, dy := int(x)-int(px), int(y)-int(py)
		if dx*dx+dy*dy != 1 {
			t.Fatalf("jump at d=%d: (%d,%d)->(%d,%d)", d, px, py, x, y)
		}
		px, py = x, y
	}

	g := Heatmap(map[uint32]int{0: 3, 0xffffff: 1}, 8)
	if g.Occupied() != 2 || g.Max != 3 {
		t.Errorf("grid: occupied=%d max=%d", g.Occupied(), g.Max)
	}
	var buf bytes.Buffer
	if err := g.WritePGM(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 256*256 {
		t.Errorf("PGM too small: %d", buf.Len())
	}
}

func TestTTLSeriesAndChanges(t *testing.T) {
	mk := func(start int64, key string, hits, ttl, ok float64) *tsv.Snapshot {
		return &tsv.Snapshot{
			Level: tsv.Minutely, Start: start,
			Columns: []string{"hits", "ok", "nxd", "ttl1", "ttl1_share"},
			Kinds:   []tsv.Kind{tsv.Counter, tsv.Counter, tsv.Counter, tsv.Gauge, tsv.Gauge},
			Rows:    []tsv.Row{{Key: key, Values: []float64{hits, ok, 0, ttl, 1}}},
			Windows: 1,
		}
	}
	snaps := []*tsv.Snapshot{
		mk(0, "x.com.", 10, 600, 10),
		mk(60, "x.com.", 12, 600, 12),
		mk(120, "x.com.", 80, 10, 80),
	}
	series := TTLSeries(snaps, "x.com.")
	if len(series) != 3 || series[2].TopTTL != 10 || series[2].Hits != 80 {
		t.Errorf("series = %+v", series)
	}
	if pt := TTLSeries(snaps, "missing."); pt[0].Hits != 0 {
		t.Error("missing key should yield zeros")
	}

	before := mk(0, "x.com.", 10, 600, 10)
	after := mk(60, "x.com.", 80, 10, 80)
	changes := TTLTrafficChanges(before, after, 0)
	if len(changes) != 1 {
		t.Fatalf("changes = %+v", changes)
	}
	c := changes[0]
	if c.TTLChange >= 0 || c.QueryChange <= 0 || c.NXDDriven {
		t.Errorf("change = %+v", c)
	}
	q := Quadrants(changes)
	if q.DownUp != 1 {
		t.Errorf("quadrants = %+v", q)
	}

	// NXD-driven case: queries up, NoError flat.
	before2 := mk(0, "y.com.", 10, 60, 10)
	after2 := mk(60, "y.com.", 50, 600, 10)
	changes2 := TTLTrafficChanges(before2, after2, 0)
	if len(changes2) != 1 || !changes2[0].NXDDriven {
		t.Errorf("nxd-driven missed: %+v", changes2)
	}
	q2 := Quadrants(changes2)
	if q2.UpUp != 1 || q2.UpUpNXD != 1 {
		t.Errorf("quadrants2 = %+v", q2)
	}
}

func TestDetectAndClassifyTTLChanges(t *testing.T) {
	mk := func(start int64, rows ...tsv.Row) *tsv.Snapshot {
		return &tsv.Snapshot{
			Level: tsv.Hourly, Start: start,
			Columns: []string{"ttl1", "ttl1_share"},
			Kinds:   []tsv.Kind{tsv.Gauge, tsv.Gauge},
			Rows:    rows, Windows: 1,
		}
	}
	row := func(k string, ttl, share float64) tsv.Row {
		return tsv.Row{Key: k, Values: []float64{ttl, share}}
	}
	snaps := []*tsv.Snapshot{
		mk(0, row("stable.com.", 300, 1), row("renum.com.", 600, 1), row("flappy.com.", 100, 0.5), row("low.com.", 300, 0.05)),
		mk(3600, row("stable.com.", 300, 1), row("renum.com.", 38400, 1), row("flappy.com.", 700, 0.5), row("low.com.", 900, 0.05)),
		mk(7200, row("stable.com.", 300, 1), row("renum.com.", 38400, 1), row("flappy.com.", 50, 0.5)),
		mk(10800, row("flappy.com.", 900, 0.5)),
	}
	changes := DetectTTLChanges(snaps, 0.1)
	keys := map[string]TTLChangeObs{}
	for _, c := range changes {
		keys[c.Key] = c
	}
	if _, ok := keys["stable.com."]; ok {
		t.Error("stable domain flagged")
	}
	if _, ok := keys["low.com."]; ok {
		t.Error("below-share change flagged")
	}
	r, ok := keys["renum.com."]
	if !ok || r.TTLBefore != 600 || r.TTLAfter != 38400 {
		t.Errorf("renum change = %+v", r)
	}
	f, ok := keys["flappy.com."]
	if !ok || f.Flips < 3 {
		t.Errorf("flappy = %+v", f)
	}

	gt := GroundTruth{
		Renumbered: map[string]bool{"renum.com.": true},
		NSChanged:  map[string]bool{},
	}
	classes := Classify(changes, gt)
	if len(classes[ClassRenumbering]) != 1 {
		t.Errorf("renumbering class: %+v", classes)
	}
	if len(classes[ClassNonConforming]) != 1 {
		t.Errorf("non-conforming class: %+v", classes)
	}
}

func TestClassNames(t *testing.T) {
	for c := ClassNonConforming; c <= ClassUnknown; c++ {
		if c.String() == "?" {
			t.Errorf("class %d unnamed", c)
		}
	}
}
