package analysis

import (
	"slices"
	"strings"

	"dnsobservatory/internal/observatory"
	"dnsobservatory/internal/sie"
	"dnsobservatory/internal/simnet"
	"dnsobservatory/internal/spine"
	"dnsobservatory/internal/tsv"
)

// RunResult bundles one simulate→observe pass and the store its windows
// went into: every read is a read of that store.
type RunResult struct {
	Sim      *simnet.Sim
	SimStats simnet.Stats
	Parsed   uint64
	Errors   uint64
	// Aggs names the run's aggregations, sorted.
	Aggs []string
	// Err is the run's first store failure — a store that could not be
	// opened, or a Put, cascade or retention that failed. Every read
	// returns it.
	Err   error
	store *tsv.Store
}

// RunWith generates traffic from simCfg and feeds it through the
// Observatory's spine with the aggregations aggsFor builds from the
// instantiated scenario (e.g. the qmin dataset filters on the scenario's
// root/TLD addresses): every window is stored in st and cascaded as the
// next one opens, the way dnsobs archives a stream. Its clock is seconds
// since simCfg.Start.
func RunWith(st *tsv.Store, simCfg simnet.Config, obsCfg observatory.Config, aggsFor func(*simnet.Sim) []observatory.Aggregation) *RunResult {
	res := &RunResult{Sim: simnet.New(simCfg), store: st}
	aggs := aggsFor(res.Sim)
	for _, a := range aggs {
		res.Aggs = append(res.Aggs, a.Name)
	}
	slices.Sort(res.Aggs)
	sp := spine.Open(spine.Config{Store: st, Aggs: aggs, Engine: obsCfg})
	res.SimStats = res.Sim.Run(func(tx *sie.Transaction) {
		sp.Ingest(tx, tx.QueryTime.Sub(simCfg.Start).Seconds())
	})
	res.Err = sp.Close()
	n, refused := sp.Counts()
	res.Parsed, res.Errors = n-refused, refused
	return res
}

// Total aggregates every window of one aggregation into a single
// whole-run view (counter columns become mean per-minute rates).
func (r *RunResult) Total(agg string) (*tsv.Snapshot, error) {
	return r.TotalBetween(agg, 0, 0)
}

// TotalBetween aggregates the windows of agg whose start falls in
// [from, to) seconds of simulation time; a zero to is unbounded. It is
// one query over the minute level, its rows in key order.
func (r *RunResult) TotalBetween(agg string, from, to int64) (*tsv.Snapshot, error) {
	if r.Err != nil {
		return nil, r.Err
	}
	res, err := tsv.RunQuery(r.store, tsv.Query{Agg: agg, Level: tsv.Minutely, From: from, To: to})
	if err != nil {
		return nil, err
	}
	slices.SortFunc(res.Rows, func(a, b tsv.Row) int { return strings.Compare(a.Key, b.Key) })
	return &tsv.Snapshot{Aggregation: agg, Level: res.Level, Start: res.From,
		Columns: res.Columns, Kinds: res.Kinds, Rows: res.Rows,
		TotalBefore: res.TotalBefore, TotalAfter: res.TotalAfter, Windows: res.Windows}, nil
}

// Windows reads every window of agg back from the store, in time order.
func (r *RunResult) Windows(agg string) ([]*tsv.Snapshot, error) {
	if r.Err != nil {
		return nil, r.Err
	}
	return Windows(r.store, agg)
}

// Windows reads every minute-level window of agg back from st, in time
// order.
func Windows(st *tsv.Store, agg string) ([]*tsv.Snapshot, error) {
	starts, err := st.List(agg, tsv.Minutely)
	if err != nil {
		return nil, err
	}
	out := make([]*tsv.Snapshot, len(starts))
	for i, s := range starts {
		if out[i], err = st.Get(agg, tsv.Minutely, s); err != nil {
			return nil, err
		}
	}
	return out, nil
}
