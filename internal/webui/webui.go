package webui

import (
	"cmp"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/pprof"
	"slices"
	"strconv"
	"strings"
	"sync"

	"dnsobservatory/internal/metrics"
	"dnsobservatory/internal/tsv"
)

// Server is the HTTP facade. The zero value is not usable; create with
// NewServer. Server is safe for concurrent use.
//
// The server reads transaction and window counts from the metrics
// registry the engines publish to (there is no per-transaction or
// per-window hook to remember to call): wire the same registry into
// observatory.Config.Metrics, or leave Registry nil to use
// metrics.Default(). Every window it reports it reads from the store.
type Server struct {
	store  *tsv.Store  // optional
	engine *tsv.Engine // non-nil iff store is
	qOnce  sync.Once   // instruments engine on first Handler call

	// Registry is the metrics registry served by /metrics and
	// /api/metricsz and read by /healthz. Set before Handler;
	// nil means metrics.Default().
	Registry *metrics.Registry
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiling endpoints expose internals and cost CPU, so
	// they are opt-in (the dnsobs -pprof flag).
	EnablePprof bool
	// The /healthz hooks: each, when set, adds its result under its
	// lower-case name ("sensors", "wal", "fleet", "probe", "enc"). They
	// are func() any to keep webui decoupled from the packages they
	// report on. dnsobs wires Sensors to the transport collector's
	// per-sensor liveness, WAL to its journal status (size, whether
	// the tailer is behind, last checkpoint), Fleet to the fleet router's members and cooldowns,
	// and Enc to the encwire accumulator's Status (per-mode message,
	// byte and handshake counters), which GET /api/encdns serves too;
	// dnsprobe wires Probe to the probe engine's Status (queue depth,
	// in-flight probes, outcome counters).
	Sensors, WAL, Fleet, Probe, Enc func() any
}

// NewServer returns a server; store may be nil when only the status
// endpoints are served. Either backend serves the same endpoints.
func NewServer(store *tsv.Store) *Server {
	s := &Server{store: store}
	if store != nil {
		s.engine = tsv.NewEngine(store)
	}
	return s
}

// OnSnapshot does nothing: the server answers from the store. It stays
// only for cmd/dnsbench, which still calls it.
func (s *Server) OnSnapshot(*tsv.Snapshot) {}

// registry returns the effective metrics registry.
func (s *Server) registry() *metrics.Registry {
	if s.Registry != nil {
		return s.Registry
	}
	return metrics.Default()
}

// Handler returns the routed http.Handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /api/metricsz", s.handleMetricsz)
	mux.HandleFunc("GET /api/aggregations", s.stored(s.handleAggregations))
	mux.HandleFunc("GET /api/top/{agg}", s.stored(s.handleTop))
	mux.HandleFunc("GET /api/detect", s.stored(s.handleDetect))
	mux.HandleFunc("GET /api/encdns", s.handleEncDNS)
	mux.HandleFunc("GET /api/query", s.stored(s.handleQuery))
	mux.HandleFunc("GET /api/files/{agg}", s.stored(s.handleFiles))
	mux.HandleFunc("GET /files/{agg}/{level}/{start}", s.stored(s.handleFile))
	if s.engine != nil {
		s.qOnce.Do(func() { s.engine.Instrument(s.registry()) })
	}
	if s.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// stored is h on a server with a store; without one, every endpoint
// that reads the store answers 404.
func (s *Server) stored(h http.HandlerFunc) http.HandlerFunc {
	if s.store != nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no store attached", http.StatusNotFound)
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	health := map[string]any{
		"ok":           true,
		"transactions": s.registry().SumCounter(observatoryIngested),
		"windows":      s.registry().SumCounter(observatoryFlush),
	}
	for key, hook := range map[string]func() any{"sensors": s.Sensors, "wal": s.WAL, "fleet": s.Fleet, "probe": s.Probe, "enc": s.Enc} {
		if hook != nil {
			health[key] = hook()
		}
	}
	writeJSON(w, health)
}

// The engine families /healthz reads: observatory.MetricIngested, and
// MetricFlush, observed once per window. Spelled out to keep webui
// usable with any engine that publishes them.
const (
	observatoryIngested = "dnsobs_engine_ingested_total"
	observatoryFlush    = "dnsobs_engine_flush_seconds"
)

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", metrics.PrometheusContentType)
	if err := s.registry().WritePrometheus(w); err != nil {
		// Too late for a status change; the connection is gone.
		return
	}
}

func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := s.registry().WriteJSON(w); err != nil {
		return
	}
}

func (s *Server) handleAggregations(w http.ResponseWriter, r *http.Request) {
	listing, err := s.store.Listing(tsv.Minutely)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	names := make([]string, 0, len(listing))
	for name := range listing {
		names = append(names, name)
	}
	slices.Sort(names)
	writeJSON(w, names)
}

// newest returns the start of agg's newest minute window, and false when
// the store holds none.
func (s *Server) newest(agg string) (int64, bool, error) {
	starts, err := s.store.List(agg, tsv.Minutely)
	if len(starts) == 0 {
		return 0, false, err
	}
	return starts[len(starts)-1], true, nil
}

// ranked returns the strongest n rows by col of agg's minute window at
// start, with its columns: a query of that one file, which the engine
// answers with the file's rows as stored. A window Retention took since
// it was listed has no rows.
func (s *Server) ranked(agg string, start int64, col string, n int) ([]tsv.Row, []string, error) {
	switch res, err := s.engine.Run(tsv.Query{Agg: agg, Level: tsv.Minutely, From: start, To: start + 1, K: n, OrderBy: col}); {
	case errors.Is(err, tsv.ErrNoData):
		return nil, nil, nil
	case err != nil:
		return nil, nil, err
	default:
		return res.Rows, res.Columns, nil
	}
}

// parseN reads the ?n cap of /api/top and /api/detect (default 50),
// answering 400 when it is malformed.
func parseN(w http.ResponseWriter, r *http.Request) (int, bool) {
	n, err := strconv.Atoi(cmp.Or(r.URL.Query().Get("n"), "50"))
	if err != nil || n < 1 || n > 100000 {
		http.Error(w, "bad n", http.StatusBadRequest)
		return 0, false
	}
	return n, true
}

// handleTop serves GET /api/top/{agg} — the strongest ?n rows (default
// 50) by ?col (default hits) of agg's newest minute window.
func (s *Server) handleTop(w http.ResponseWriter, r *http.Request) {
	agg := r.PathValue("agg")
	start, ok, err := s.newest(agg)
	switch {
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	case !ok:
		http.Error(w, "unknown aggregation", http.StatusNotFound)
		return
	}
	n, ok := parseN(w, r)
	if !ok {
		return
	}
	rows, cols, err := s.ranked(agg, start, cmp.Or(r.URL.Query().Get("col"), "hits"), n)
	switch {
	case errors.Is(err, tsv.ErrUnknownColumn):
		http.Error(w, "unknown column", http.StatusBadRequest)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	rw := newRowWriter()
	rw.string("aggregation", agg)
	rw.int("window_start", start)
	rw.rows("rows", rows, cols)
	rw.send(w)
}

// Detection snapshot aggregation names. Mirrors detect.AggESLD and
// detect.AggNOD; duplicated like observatoryIngested to keep webui
// decoupled from the detection package.
const (
	detectESLD = "detect_esld"
	detectNOD  = "detect_nod"
)

// handleDetect serves GET /api/detect — the newest detection window in
// one response: information-content heavy hitters ranked by score and
// newly observed domains ranked by hits. ?n caps each list (default
// 50). 404 while the store holds no detection window (the engines only
// emit these snapshots when detection is enabled).
func (s *Server) handleDetect(w http.ResponseWriter, r *http.Request) {
	ic, icOK, err := s.newest(detectESLD)
	nod, nodOK, err2 := s.newest(detectNOD)
	switch {
	case err != nil || err2 != nil:
		http.Error(w, errors.Join(err, err2).Error(), http.StatusInternalServerError)
		return
	case !icOK && !nodOK:
		http.Error(w, "detection not enabled", http.StatusNotFound)
		return
	}
	n, ok := parseN(w, r)
	if !ok {
		return
	}
	start := ic
	if !icOK {
		start = nod
	}
	rw := newRowWriter()
	rw.int("window_start", start)
	for _, l := range [...]struct {
		name, agg, col string
		start          int64
		ok             bool
	}{{"heavy_hitters", detectESLD, "score", ic, icOK}, {"newly_observed", detectNOD, "hits", nod, nodOK}} {
		var rows []tsv.Row
		var cols []string
		if l.ok {
			// A window without the column lists no rows.
			if rows, cols, err = s.ranked(l.agg, l.start, l.col, n); err != nil && !errors.Is(err, tsv.ErrUnknownColumn) {
				rowWriters.Put(rw)
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
		}
		rw.rows(l.name, rows, cols)
	}
	rw.send(w)
}

// handleEncDNS serves GET /api/encdns — the encrypted-client-leg
// status the Enc hook exposes (per-mode message/byte/handshake
// counters from an encwire accumulator). 404 until the hook is wired
// (plaintext deployments have no encrypted leg to report).
func (s *Server) handleEncDNS(w http.ResponseWriter, r *http.Request) {
	if s.Enc == nil {
		http.Error(w, "encrypted-leg accounting not enabled", http.StatusNotFound)
		return
	}
	writeJSON(w, s.Enc())
}

// handleQuery serves GET /api/query — the read path over the snapshot
// store. Parameters:
//
//	agg    aggregation name (required)
//	level  level name: min, 10min, hour, day, month or year (default min)
//	from   inclusive window-start lower bound, unix seconds (default 0)
//	to     exclusive upper bound; 0 or absent means unbounded
//	cols   CSV column projection (default: all columns)
//	order  ranking column (default: first result column)
//	k      top-k cap, 0 means all (default 50)
//	key    exact-key point lookup
//	where  repeatable predicate "col:min:max"; empty min/max mean
//	       unbounded on that side
//
// Rows aggregate over the matched windows with the cascade's semantics
// and rank by descending order-column value, ties by ascending key.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	qp := r.URL.Query()
	q := tsv.Query{Agg: qp.Get("agg"), Level: tsv.Minutely, K: 50, Key: qp.Get("key"), OrderBy: qp.Get("order")}
	if lv := qp.Get("level"); lv != "" {
		level, ok := tsv.ParseLevel(lv)
		if !ok {
			http.Error(w, "unknown level", http.StatusBadRequest)
			return
		}
		q.Level = level
	}
	for _, p := range [...]struct {
		name string
		dst  *int64
	}{{"from", &q.From}, {"to", &q.To}} {
		if v := qp.Get(p.name); v != "" {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				http.Error(w, "bad "+p.name, http.StatusBadRequest)
				return
			}
			*p.dst = n
		}
	}
	if v := qp.Get("k"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 || n > 1000000 {
			http.Error(w, "bad k", http.StatusBadRequest)
			return
		}
		q.K = n
	}
	if cols := qp.Get("cols"); cols != "" {
		q.Columns = strings.Split(cols, ",")
		for i, c := range q.Columns { // each row would hold it once

			if slices.Contains(q.Columns[:i], c) {
				http.Error(w, "bad cols", http.StatusBadRequest)
				return
			}
		}
	}
	for _, spec := range qp["where"] {
		parts := strings.Split(spec, ":")
		if len(parts) != 3 || parts[0] == "" {
			http.Error(w, "bad where (want col:min:max)", http.StatusBadRequest)
			return
		}
		p := tsv.Pred{Col: parts[0], Min: math.Inf(-1), Max: math.Inf(1)}
		for i, bound := range [2]*float64{&p.Min, &p.Max} {
			if parts[i+1] == "" {
				continue
			}
			v, err := strconv.ParseFloat(parts[i+1], 64)
			if err != nil {
				http.Error(w, "bad where "+[2]string{"min", "max"}[i], http.StatusBadRequest)
				return
			}
			*bound = v
		}
		q.Where = append(q.Where, p)
	}

	res, err := s.engine.Run(q)
	switch {
	case err == nil:
	case errors.Is(err, tsv.ErrBadQuery), errors.Is(err, tsv.ErrUnknownColumn):
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	case errors.Is(err, tsv.ErrNoData):
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	rw := newRowWriter()
	rw.string("aggregation", res.Agg)
	rw.string("level", res.Level.Name())
	rw.int("from", res.From)
	rw.int("to", res.To)
	rw.int("windows", int64(res.Windows))
	rw.int("files", int64(res.Files))
	if res.CorruptSkipped != 0 {
		rw.int("corrupt_skipped", int64(res.CorruptSkipped))
	}
	rw.strings("columns", res.Columns)
	rw.rows("rows", res.Rows, res.Columns)
	rw.send(w)
}

func (s *Server) handleFiles(w http.ResponseWriter, r *http.Request) {
	agg := r.PathValue("agg")
	type fileInfo struct {
		Level string `json:"level"`
		Start int64  `json:"start"`
		Name  string `json:"name"`
	}
	files := []fileInfo{} // an aggregation with no files is [], like the other lists
	for level := tsv.Minutely; level <= tsv.MaxLevel; level++ {
		starts, err := s.store.List(agg, level)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		for _, start := range starts {
			snap := tsv.Snapshot{Aggregation: agg, Level: level, Start: start}
			files = append(files, fileInfo{Level: level.Name(), Start: start, Name: s.store.FileName(&snap)})
		}
	}
	writeJSON(w, files)
}

func (s *Server) handleFile(w http.ResponseWriter, r *http.Request) {
	agg := r.PathValue("agg")
	start, err := strconv.ParseInt(r.PathValue("start"), 10, 64)
	if err != nil {
		http.Error(w, "bad start", http.StatusBadRequest)
		return
	}
	level, ok := tsv.ParseLevel(r.PathValue("level"))
	if !ok || strings.ContainsAny(agg, "/\\") {
		http.Error(w, "bad path", http.StatusBadRequest)
		return
	}
	snap, err := s.store.Get(agg, level, start)
	if err != nil {
		http.Error(w, "not found", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/tab-separated-values")
	if _, err := snap.WriteTo(w); err != nil {
		// Too late for a status change; the connection is gone.
		return
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	// An encode error is a client gone mid-response: too late for a
	// status change.
	_ = json.NewEncoder(w).Encode(v)
}
