package experiments

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"dnsobservatory/internal/analysis"
	"dnsobservatory/internal/detect"
	"dnsobservatory/internal/observatory"
	"dnsobservatory/internal/publicsuffix"
	"dnsobservatory/internal/sie"
	"dnsobservatory/internal/simnet"
	"dnsobservatory/internal/spine"
	"dnsobservatory/internal/tsv"
)

// Detection evaluation parameters. The comparison k is deliberately
// small: the claim under test is that information-content ranking
// surfaces low-and-slow channels within the same attention budget a
// volume-only top list gets.
const (
	detectEvalK          = 20
	detectNODHorizonSec  = 120
	detectNODBucketCount = 4
)

// workloadName maps sie.Workload* tags to display labels.
var workloadName = [...]string{"benign", "dga", "prsd", "tunnel", "exfil"}

// truthEntry is the per-eSLD ground truth accumulated from the
// generator tags the simulator stamps on every transaction.
type truthEntry struct {
	counts [5]uint64 // observations per workload class
}

// class returns the majority workload class of the eSLD. Zone-apex and
// infrastructure queries dilute attack eSLDs with a few benign
// observations, so majority vote (not "any") decides the label.
func (e *truthEntry) class() int {
	best := 0
	for c := 1; c < len(e.counts); c++ {
		if e.counts[c] > e.counts[best] {
			best = c
		}
	}
	return best
}

// Detect runs the detection workload: the default scenario plus a
// low-and-slow exfiltration channel, scored against the simulator's
// generator tags (carried through sie.Transaction.Workload — scoring
// never pattern-matches names). It reports information-content vs
// volume-only top-k composition, rank of first detection per labeled
// class, and newly-observed-domain precision/recall.
func (c *Context) Detect(w io.Writer) error {
	simCfg := simnet.DefaultConfig()
	simCfg.Seed = c.opts.Seed
	simCfg.Duration = 300 * c.opts.Scale
	if simCfg.Duration < 300 {
		simCfg.Duration = 300
	}
	// ~0.1% of client events: a couple of queries per second hiding
	// under ~2000 tx/s — invisible to a volume ranking.
	simCfg.Mix.Exfil = 0.0008

	obsCfg := observatory.DefaultConfig()
	obsCfg.SkipFreshObjects = false
	dc := detect.DefaultConfig()
	dc.NODHorizonSec = detectNODHorizonSec
	dc.NODBuckets = detectNODBucketCount
	// The evaluation reads complete windows, so lift the snapshot row
	// caps well above the per-window first-seen volume.
	dc.NODK = 50_000
	dc.NODMaxPerWindow = 8192
	obsCfg.Detect = &dc

	st, err := c.store()
	if err != nil {
		return err
	}
	sp := spine.Open(spine.Config{Store: st, Engine: obsCfg, Aggs: []observatory.Aggregation{
		{Name: "esld", K: 10_000, Key: observatory.ESLDKeyFunc(nil)},
	}})

	// Ground truth and the online newly-observed reference model: for
	// every window, which eSLDs were genuinely unseen for at least the
	// horizon (strict) or at least horizon minus one bucket (band, the
	// detector's guaranteed-forget tolerance). The truth summarizes each
	// transaction a second time: the spine keeps its summary to itself.
	suffixes := publicsuffix.Default
	truth := map[string]*truthEntry{}
	lastObs := map[string]float64{}
	expectStrict := map[int64]map[string]bool{}
	expectBand := map[int64]map[string]bool{}
	bucketSec := float64(detectNODHorizonSec) / detectNODBucketCount

	sim := simnet.New(simCfg)
	summarizer := sie.Summarizer{KeepUnparsableResponses: true}
	var sum sie.Summary
	start := simCfg.Start
	sim.Run(func(tx *sie.Transaction) {
		t := tx.QueryTime.Sub(start).Seconds()
		sp.Ingest(tx, t) // a store failure is Close's error
		if summarizer.Summarize(tx, &sum) != nil {
			return
		}
		if esld := suffixes.ESLD(sum.QName); len(esld) > 1 {
			key := strings.Clone(esld)
			te := truth[key]
			if te == nil {
				te = &truthEntry{}
				truth[key] = te
			}
			te.counts[sum.Workload%uint32(len(workloadName))]++
			ws := int64(t/60) * 60
			prev, seen := lastObs[key]
			if !seen || t-prev >= detectNODHorizonSec {
				markExpect(expectStrict, ws, key)
				markExpect(expectBand, ws, key)
			} else if t-prev >= detectNODHorizonSec-bucketSec {
				markExpect(expectBand, ws, key)
			}
			lastObs[key] = t
		}
	})
	if err := sp.Close(); err != nil {
		return err
	}
	n, errs := sp.Counts()
	fmt.Fprintf(w, "detection workload: %d transactions (%d unparsable), %d distinct eSLDs, %.0f s\n",
		n-errs, errs, len(truth), simCfg.Duration)

	var icSnaps, nodSnaps, volSnaps []*tsv.Snapshot
	for agg, into := range map[string]*[]*tsv.Snapshot{detect.AggESLD: &icSnaps, detect.AggNOD: &nodSnaps, "esld": &volSnaps} {
		if *into, err = analysis.Windows(st, agg); err != nil {
			return err
		}
	}
	if len(icSnaps) == 0 || len(volSnaps) == 0 {
		return fmt.Errorf("experiments: no detection snapshots emitted")
	}

	classOf := func(key string) int {
		if te := truth[key]; te != nil {
			return te.class()
		}
		return 0
	}

	// Part 1: final-window top-k composition, information content vs
	// volume at equal k.
	final := len(icSnaps) - 1
	ic, vol := icSnaps[final], volSnaps[final]
	fmt.Fprintf(w, "\nTop-%d composition, final window (start %ds): information content vs volume\n",
		detectEvalK, ic.Start)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  rank\tIC key\tclass\tscore\tvolume key\tclass\thits")
	for i := 0; i < detectEvalK; i++ {
		var icKey, volKey, icClass, volClass string
		var icScore, volHits float64
		if i < len(ic.Rows) {
			icKey, icScore = ic.Rows[i].Key, ic.Rows[i].Values[0]
			icClass = workloadName[classOf(icKey)]
		}
		if i < len(vol.Rows) {
			volKey, volHits = vol.Rows[i].Key, vol.Rows[i].Values[0]
			volClass = workloadName[classOf(volKey)]
		}
		fmt.Fprintf(tw, "  %d\t%s\t%s\t%.1f\t%s\t%s\t%.0f\n",
			i+1, icKey, icClass, icScore, volKey, volClass, volHits)
	}
	tw.Flush()

	labeledIn := func(rows []tsv.Row, k int) map[int][]int {
		out := map[int][]int{} // class -> ranks (1-based)
		for i := 0; i < k && i < len(rows); i++ {
			if cl := classOf(rows[i].Key); cl != 0 {
				out[cl] = append(out[cl], i+1)
			}
		}
		return out
	}
	icHits, volHits := labeledIn(ic.Rows, detectEvalK), labeledIn(vol.Rows, detectEvalK)
	fmt.Fprintf(w, "  labeled rows in IC top-%d: %d, in volume top-%d: %d\n",
		detectEvalK, countRanks(icHits), detectEvalK, countRanks(volHits))
	for cl := 1; cl < len(workloadName); cl++ {
		if len(icHits[cl]) > 0 && len(volHits[cl]) == 0 {
			fmt.Fprintf(w, "  %s: ranked by IC (best rank %d) but MISSED by volume top-%d\n",
				workloadName[cl], icHits[cl][0], detectEvalK)
		}
	}

	// Part 2: rank of first detection per labeled class, both rankings.
	fmt.Fprintf(w, "\nRank of first detection (top-%d per window)\n", detectEvalK)
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  class\tIC window\tIC rank\tIC key\tvolume window\tvolume rank")
	for cl := 1; cl < len(workloadName); cl++ {
		icW, icR, icK := firstDetection(icSnaps, classOf, cl, detectEvalK)
		vW, vR, _ := firstDetection(volSnaps, classOf, cl, detectEvalK)
		fmt.Fprintf(tw, "  %s\t%s\t%s\t%s\t%s\t%s\n", workloadName[cl],
			windowLabel(icW), rankLabel(icR), icK, windowLabel(vW), rankLabel(vR))
	}
	tw.Flush()

	// Part 3: newly-observed-domain precision/recall after warm-up (the
	// first horizon of windows only fills the seen-set).
	var reported, truePos, strictTotal, strictHit uint64
	var dgaStrict, dgaHit uint64
	evaluated := 0
	for _, ns := range nodSnaps {
		if ns.Start < detectNODHorizonSec {
			continue
		}
		evaluated++
		rows := map[string]bool{}
		for _, r := range ns.Rows {
			rows[r.Key] = true
			reported++
			if expectBand[ns.Start][r.Key] {
				truePos++
			}
		}
		for key := range expectStrict[ns.Start] {
			strictTotal++
			if rows[key] {
				strictHit++
			}
			if classOf(key) == int(sie.WorkloadDGA) {
				dgaStrict++
				if rows[key] {
					dgaHit++
				}
			}
		}
	}
	if evaluated == 0 {
		return fmt.Errorf("experiments: run too short for NOD warm-up (%d s horizon)", detectNODHorizonSec)
	}
	fmt.Fprintf(w, "\nNewly-observed domains, %d post-warmup windows (horizon %d s, %d buckets)\n",
		evaluated, detectNODHorizonSec, detectNODBucketCount)
	fmt.Fprintf(w, "  reported first-seen: %d, of which correct (unseen >= %0.f s): %d -> precision %.3f\n",
		reported, detectNODHorizonSec-bucketSec, truePos, ratio(truePos, reported))
	fmt.Fprintf(w, "  truly new (unseen >= %d s): %d, of which reported: %d -> recall %.3f\n",
		detectNODHorizonSec, strictTotal, strictHit, ratio(strictHit, strictTotal))
	fmt.Fprintf(w, "  DGA eSLDs truly new: %d, reported: %d -> DGA recall %.3f\n",
		dgaStrict, dgaHit, ratio(dgaHit, dgaStrict))
	return nil
}

func markExpect(m map[int64]map[string]bool, ws int64, key string) {
	set := m[ws]
	if set == nil {
		set = map[string]bool{}
		m[ws] = set
	}
	set[key] = true
}

func countRanks(m map[int][]int) (n int) {
	for _, ranks := range m {
		n += len(ranks)
	}
	return n
}

// firstDetection scans windows in time order for the first appearance
// of an eSLD of the given class within the top k rows.
func firstDetection(snaps []*tsv.Snapshot, classOf func(string) int, class, k int) (window int64, rank int, key string) {
	for _, s := range snaps {
		for i := 0; i < k && i < len(s.Rows); i++ {
			if classOf(s.Rows[i].Key) == class {
				return s.Start, i + 1, s.Rows[i].Key
			}
		}
	}
	return -1, 0, ""
}

func windowLabel(start int64) string {
	if start < 0 {
		return "never"
	}
	return fmt.Sprintf("%ds", start)
}

func rankLabel(rank int) string {
	if rank == 0 {
		return "-"
	}
	return fmt.Sprintf("%d", rank)
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
