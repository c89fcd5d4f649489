package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"dnsobservatory/internal/metrics"
	"dnsobservatory/internal/observatory"
	"dnsobservatory/internal/tsv"
	"dnsobservatory/internal/webui"
)

// The four request classes of query-mix and their shares of the
// sequence.
const (
	classTopK = iota
	classPointHit
	classPointMiss
	classScanWhere
	numClasses
)

var (
	classNames  = [numClasses]string{"topk", "point_hit", "point_miss", "scan_where"}
	classShares = [numClasses]float64{0.40, 0.30, 0.15, 0.15}
)

// querySpec is one distinct request: the URL a client sends, the same
// query as the engine's struct, and the body a correct server answers.
type querySpec struct {
	class int
	url   string
	q     tsv.Query
	want  []byte
}

// queryCounters are the read-path tallies of one traced query round.
type queryCounters struct {
	handlerMs     []float64             // per request, handler entry → response written
	directMs      [numClasses][]float64 // per request, tsv.Engine.Run of the same query
	overheadMs    []float64             // handler minus direct, per request
	responseBytes int64
	queries       int
	blocksDecoded uint64
	blocksSkipped uint64
	bloomSkips    uint64
	filesScanned  uint64
	listHits      uint64
	listMisses    uint64
}

// queryWorkload is the read path: one closed-loop client issuing a
// fixed, seeded sequence of GET /api/query requests straight into the
// web UI's handler, against a columnar store populated by the real
// serial engine.
type queryWorkload struct {
	store     *tsv.Store
	palette   []querySpec
	sequence  []int // indices into palette, one round's requests in order
	digest    string
	bytes     int64
	setupTime time.Duration
	faults    []string
}

func (w *queryWorkload) ops() int { return len(w.sequence) }

// newQueryWorkload populates the store under test (timed: it is system
// set-up), then a TSV-backend twin of the same snapshots and the
// expected answer of every distinct request (untimed: they are the
// checker's).
func newQueryWorkload(cfg config, p *pool, scratch string, log io.Writer) (*queryWorkload, error) {
	w := &queryWorkload{}
	aggs := observatory.StandardAggregations(capFactor)
	names := aggNamesOf(aggs, false)

	start := time.Now()
	var snaps []*tsv.Snapshot
	in := newIngester(newSerialEngine(engineConfig(false), aggs, func(s *tsv.Snapshot) { snaps = append(snaps, s) }), nil, nil)
	for i := range p.txs {
		in.one(&p.txs[i])
	}
	in.eng.flush()
	span := int64(p.windows) * windowSec
	windows := p.windows * cfg.shifts
	// The pool's windows again and again, each copy shifted past the
	// last: a long history at the cost of one engine run.
	populate := func(dir, backend string) (*tsv.Store, error) {
		st, err := tsv.NewStoreBackend(dir, backend)
		if err != nil {
			return nil, err
		}
		for shift := 0; shift < cfg.shifts; shift++ {
			for _, s := range snaps {
				c := *s
				c.Start += int64(shift) * span
				if err := st.Put(&c); err != nil {
					return nil, err
				}
			}
		}
		return st, nil
	}
	var err error
	if w.store, err = populate(filepath.Join(scratch, "query-store"), tsv.BackendColumnar); err != nil {
		return nil, fmt.Errorf("populate store: %w", err)
	}
	if err := w.store.CascadeAll(names, int64(windows)*windowSec); err != nil {
		return nil, fmt.Errorf("cascade store: %w", err)
	}
	w.setupTime = time.Since(start)

	// The twin holds the minutely level only: that is all the mix reads.
	tTwin := time.Now()
	twin, err := populate(filepath.Join(scratch, "query-twin"), tsv.BackendTSV)
	if err != nil {
		return nil, fmt.Errorf("populate twin: %w", err)
	}
	if w.digest, w.bytes, err = dirDigest(w.store.Dir()); err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(p.seed))
	w.buildPalette(cfg, rng, snaps, windows)
	handler := w.newHandler()
	for i := range w.palette {
		if err := w.verify(&w.palette[i], handler, twin); err != nil {
			w.faults = append(w.faults, fmt.Sprintf("query %s: %v", w.palette[i].url, err))
		}
	}
	fmt.Fprintf(log, "# query-mix: store populated in %v; twin and %d reference answers in %v\n",
		w.setupTime.Round(time.Millisecond), len(w.palette), time.Since(tTwin).Round(time.Millisecond))
	// The sequence: each class exactly its share of the round, the
	// class's requests taking turns so that each is issued equally often
	// at every seed, in seeded order.
	byClass := make([][]int, numClasses)
	for i, spec := range w.palette {
		byClass[spec.class] = append(byClass[spec.class], i)
	}
	for class, share := range classShares {
		n := int(share*float64(cfg.queries) + 0.5)
		if class == numClasses-1 {
			n = cfg.queries - len(w.sequence)
		}
		for ; n > 0; n-- {
			w.sequence = append(w.sequence, byClass[class][n%len(byClass[class])])
		}
	}
	rng.Shuffle(len(w.sequence), func(i, j int) { w.sequence[i], w.sequence[j] = w.sequence[j], w.sequence[i] })
	return w, nil
}

// buildPalette draws the distinct requests: cfg.palette per class.
func (w *queryWorkload) buildPalette(cfg config, rng *rand.Rand, snaps []*tsv.Snapshot, windows int) {
	// Range scans over many windows and point lookups over all of them
	// go to the small aggregations, the short where-scans to the big
	// ones: what the TSV twin can re-answer in seconds (it parses every
	// file in range whole) decides how much of each there can be.
	small := []string{"etld", "aafqdn", "srcsrv"}
	big := []string{"srvip", "esld", "qname"}
	firstOf := map[string]*tsv.Snapshot{}
	for _, s := range snaps {
		if firstOf[s.Aggregation] == nil && len(s.Rows) > 0 {
			firstOf[s.Aggregation] = s
		}
	}
	topkRange, scanRange := max(windows/2, 1), max(windows/12, 1)
	from := func(rangeLen int) int64 { return int64(rng.Intn(windows-rangeLen+1)) * windowSec }
	add := func(class int, q tsv.Query) {
		v := url.Values{"agg": {q.Agg}, "k": {strconv.Itoa(q.K)}}
		if q.From != 0 {
			v.Set("from", strconv.FormatInt(q.From, 10))
		}
		if q.To != 0 {
			v.Set("to", strconv.FormatInt(q.To, 10))
		}
		if len(q.Columns) > 0 {
			v.Set("cols", strings.Join(q.Columns, ","))
		}
		if q.OrderBy != "" {
			v.Set("order", q.OrderBy)
		}
		if q.Key != "" {
			v.Set("key", q.Key)
		}
		for _, p := range q.Where {
			v.Add("where", fmt.Sprintf("%s:%s:", p.Col, strconv.FormatFloat(p.Min, 'g', -1, 64)))
		}
		w.palette = append(w.palette, querySpec{class: class, url: "/api/query?" + v.Encode(), q: q})
	}
	// The shape of the palette is fixed — which aggregation, which k,
	// which predicate — so its cost does not move with the seed; the seed
	// picks the ranges and the keys.
	for i := 0; i < cfg.palette; i++ {
		agg := small[i%len(small)]
		f := from(topkRange)
		add(classTopK, tsv.Query{Agg: agg, From: f, To: f + int64(topkRange)*windowSec,
			K: []int{10, 50, 100}[i%3], Columns: []string{"hits", "nxd", "qnames"}, OrderBy: "hits"})

		agg = small[(i+1)%len(small)]
		rows := firstOf[agg].Rows
		add(classPointHit, tsv.Query{Agg: agg, K: 50, Columns: []string{"hits", "nxd", "rate"}, Key: rows[rng.Intn(min(len(rows), 20))].Key})

		agg = small[(i+2)%len(small)]
		add(classPointMiss, tsv.Query{Agg: agg, K: 50, Columns: []string{"hits", "nxd", "rate"}, Key: fmt.Sprintf("absent-%d.dnsbench.invalid.", rng.Intn(1<<20))})

		agg = big[i%len(big)]
		f = from(scanRange)
		add(classScanWhere, tsv.Query{Agg: agg, From: f, To: f + int64(scanRange)*windowSec, K: 100,
			Columns: []string{"hits", "nxd", "srvips"}, OrderBy: "hits",
			Where: []tsv.Pred{tsv.AtLeast("hits", 5)}})
	}
}

// newHandler is the web UI as dnsobs -http mounts it, on a registry of
// its own so rounds do not accumulate into the process-wide one.
func (w *queryWorkload) newHandler() http.Handler {
	ui := webui.NewServer(w.store)
	ui.Registry = metrics.NewRegistry()
	return ui.Handler()
}

// recorder is the client's end of a request served without a socket.
type recorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.header }
func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}
func (r *recorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.body.Write(b)
}
func (r *recorder) reset() {
	clear(r.header)
	r.status = 0
	r.body.Reset()
}

// verify serves spec once, checks the answer row by row against
// tsv.RunQuery on the TSV twin, and keeps the body as the expected
// answer for the measured rounds.
func (w *queryWorkload) verify(spec *querySpec, handler http.Handler, twin tsv.SnapshotStore) error {
	req, err := http.NewRequest(http.MethodGet, spec.url, nil)
	if err != nil {
		return err
	}
	rec := &recorder{header: http.Header{}}
	handler.ServeHTTP(rec, req)
	if rec.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", rec.status, rec.body.String())
	}
	var got struct {
		Columns []string `json:"columns"`
		Windows int      `json:"windows"`
		Rows    []struct {
			Key    string             `json:"key"`
			Values map[string]float64 `json:"values"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(rec.body.Bytes(), &got); err != nil {
		return fmt.Errorf("response does not parse: %w", err)
	}
	want, err := tsv.RunQuery(twin, spec.q)
	if err != nil {
		return fmt.Errorf("twin: %w", err)
	}
	if len(got.Rows) != len(want.Rows) || got.Windows != want.Windows || len(got.Columns) != len(want.Columns) {
		return fmt.Errorf("%d rows over %d windows, twin has %d over %d", len(got.Rows), got.Windows, len(want.Rows), want.Windows)
	}
	for i, row := range want.Rows {
		if got.Rows[i].Key != row.Key {
			return fmt.Errorf("row %d is %q, twin has %q", i, got.Rows[i].Key, row.Key)
		}
		for c, name := range want.Columns {
			if g, ok := got.Rows[i].Values[name]; !ok || (g != row.Values[c] && !(math.IsNaN(g) && math.IsNaN(row.Values[c]))) {
				return fmt.Errorf("row %d column %s is %v, twin has %v", i, name, g, row.Values[c])
			}
		}
	}
	if spec.class == classPointHit && len(want.Rows) != 1 {
		return fmt.Errorf("present key matched %d rows", len(want.Rows))
	}
	if spec.class == classPointMiss && len(want.Rows) != 0 {
		return fmt.Errorf("absent key matched %d rows", len(want.Rows))
	}
	spec.want = append([]byte(nil), rec.body.Bytes()...)
	return nil
}

// round issues the sequence once through a fresh handler. Under trace
// a second pass runs each query straight on a tsv.Engine, which is where
// the per-class store latencies and the web UI's overhead come from.
func (w *queryWorkload) round(rc *roundCtx) (*roundResult, error) {
	handler := w.newHandler()
	reqs := make([]*http.Request, len(w.sequence))
	for i, pi := range w.sequence {
		req, err := http.NewRequest(http.MethodGet, w.palette[pi].url, nil)
		if err != nil {
			return nil, err
		}
		reqs[i] = req
	}
	rr := &roundResult{ops: len(w.sequence), lagMs: make([]float64, 0, len(w.sequence)),
		storeDigest: w.digest, storeBytes: w.bytes} // built once in set-up, only read since
	rec := &recorder{header: http.Header{}}
	qc := &rr.query

	began := time.Now()
	for i, pi := range w.sequence {
		spec := &w.palette[pi]
		rec.reset()
		id := rc.tr.begin(rc.span, "webui.query")
		start := time.Now()
		handler.ServeHTTP(rec, reqs[i])
		rr.lagMs = append(rr.lagMs, ms(time.Since(start)))
		rc.tr.end(id, 1)
		if rec.status != http.StatusOK || !bytes.Equal(rec.body.Bytes(), spec.want) {
			rr.failed++
			if len(rr.faults) < 3 {
				rr.fault("%s: status %d, %d-byte body, want %d bytes", spec.url, rec.status, rec.body.Len(), len(spec.want))
			}
		}
		qc.responseBytes += int64(rec.body.Len())
	}
	rr.measured = time.Since(began)
	if rc.tr == nil {
		return rr, nil
	}

	qc.handlerMs = rr.lagMs
	qc.queries = len(w.sequence)
	eng := tsv.NewEngine(w.store)
	d0, s0, b0 := w.store.BlocksDecoded(), w.store.BlocksSkipped(), w.store.BloomSkips()
	h0, m0 := w.store.ListCacheHits(), w.store.ListCacheMisses()
	for i, pi := range w.sequence {
		spec := &w.palette[pi]
		id := rc.tr.begin(rc.span, "tsv.query")
		start := time.Now()
		_, err := eng.Run(spec.q)
		d := ms(time.Since(start))
		rc.tr.end(id, 1)
		if err != nil {
			return nil, fmt.Errorf("direct %s: %w", spec.url, err)
		}
		qc.directMs[spec.class] = append(qc.directMs[spec.class], d)
		qc.overheadMs = append(qc.overheadMs, qc.handlerMs[i]-d)
	}
	qc.blocksDecoded, qc.blocksSkipped, qc.bloomSkips = w.store.BlocksDecoded()-d0, w.store.BlocksSkipped()-s0, w.store.BloomSkips()-b0
	qc.listHits, qc.listMisses = w.store.ListCacheHits()-h0, w.store.ListCacheMisses()-m0
	qc.filesScanned = eng.FilesScanned()
	return rr, nil
}
