package webui

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/pprof"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"dnsobservatory/internal/metrics"
	"dnsobservatory/internal/tsv"
)

// Server is the HTTP facade. The zero value is not usable; create with
// NewServer. Server is safe for concurrent use.
//
// The server reads transaction counts from the metrics registry the
// engines publish to (there is no per-transaction hook to remember to
// call): wire the same registry into observatory.Config.Metrics, or
// leave Registry nil to use metrics.Default().
type Server struct {
	mu     sync.RWMutex
	latest map[string]*tsv.Snapshot
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
	// Sensors, when set, adds its result under the "sensors" key in
	// /healthz — dnsobs wires it to the transport collector's per-sensor
	// liveness so operators see which feeds are up. Declared as func()
	// any to keep webui decoupled from the transport package.
	Sensors func() any
	// WAL, when set, adds its result under the "wal" key in /healthz —
	// dnsobs wires it to the collector's journal status (size, lag,
	// last checkpoint). Same decoupling convention as Sensors.
	WAL func() any
	// Fleet, when set, adds its result under the "fleet" key in
	// /healthz — dnsobs wires it to the fleet router's member list so
	// operators see placement and cooldowns.
	Fleet func() any
	// Probe, when set, adds its result under the "probe" key in
	// /healthz — dnsprobe wires it to the probe engine's Status so
	// operators see queue depth, in-flight probes and the outcome
	// counters. Same decoupling convention as Sensors.
	Probe func() any
	// Enc, when set, serves GET /api/encdns and adds its result under
	// the "enc" key in /healthz — dnsobs wires it to the encwire
	// accumulator's Status (per-mode message, byte and handshake
	// counters of the encrypted client leg). Same decoupling convention
	// as Sensors.
	Enc func() any

	windows atomic.Uint64
}

// NewServer returns a server; store may be nil when only live snapshots
// are exposed. Either backend serves the same endpoints.
func NewServer(store *tsv.Store) *Server {
	s := &Server{latest: map[string]*tsv.Snapshot{}, store: store}
	if store != nil {
		s.engine = tsv.NewEngine(store)
	}
	return s
}

// OnSnapshot records a freshly dumped snapshot; hook it into the
// pipeline's snapshot callback.
func (s *Server) OnSnapshot(snap *tsv.Snapshot) {
	s.mu.Lock()
	s.latest[snap.Aggregation] = snap
	s.mu.Unlock()
	s.windows.Add(1)
}

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
	mux.HandleFunc("GET /api/aggregations", s.handleAggregations)
	mux.HandleFunc("GET /api/top/{agg}", s.handleTop)
	mux.HandleFunc("GET /api/detect", s.handleDetect)
	mux.HandleFunc("GET /api/encdns", s.handleEncDNS)
	mux.HandleFunc("GET /api/query", s.handleQuery)
	mux.HandleFunc("GET /api/files/{agg}", s.handleFiles)
	mux.HandleFunc("GET /files/{agg}/{level}/{start}", s.handleFile)
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

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	health := map[string]any{
		"ok":           true,
		"transactions": s.registry().SumCounter(observatoryIngested),
		"windows":      s.windows.Load(),
	}
	if s.Sensors != nil {
		health["sensors"] = s.Sensors()
	}
	if s.WAL != nil {
		health["wal"] = s.WAL()
	}
	if s.Fleet != nil {
		health["fleet"] = s.Fleet()
	}
	if s.Probe != nil {
		health["probe"] = s.Probe()
	}
	if s.Enc != nil {
		health["enc"] = s.Enc()
	}
	writeJSON(w, health)
}

// observatoryIngested is the engine family /healthz reports. Mirrors
// observatory.MetricIngested; the string is duplicated to keep webui
// free of an import cycle risk and usable with any engine that
// publishes the family.
const observatoryIngested = "dnsobs_engine_ingested_total"

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
	s.mu.RLock()
	names := make([]string, 0, len(s.latest))
	for name := range s.latest {
		names = append(names, name)
	}
	s.mu.RUnlock()
	slices.Sort(names)
	writeJSON(w, names)
}

// ranked returns snap's strongest n rows by column col with snap's
// columns, or nothing when snap is nil or has no such column. It ranks a
// copy of the rows (tsv.TopRows) and only reads the snapshot, which is
// shared: every request for the aggregation is handed the same one, and
// whoever gave it to OnSnapshot may still be using it — dnsobs goes on
// to store it.
func ranked(snap *tsv.Snapshot, col string, n int) ([]tsv.Row, []string) {
	if snap == nil {
		return nil, nil
	}
	idx := slices.Index(snap.Columns, col)
	if idx < 0 {
		return nil, nil
	}
	return tsv.TopRows(snap.Rows, idx, n), snap.Columns
}

func (s *Server) handleTop(w http.ResponseWriter, r *http.Request) {
	agg := r.PathValue("agg")
	s.mu.RLock()
	snap := s.latest[agg]
	s.mu.RUnlock()
	if snap == nil {
		http.Error(w, "unknown aggregation", http.StatusNotFound)
		return
	}
	n := 50
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 || v > 100000 {
			http.Error(w, "bad n", http.StatusBadRequest)
			return
		}
		n = v
	}
	col := r.URL.Query().Get("col")
	if col == "" {
		col = "hits"
	}
	if !slices.Contains(snap.Columns, col) {
		http.Error(w, "unknown column", http.StatusBadRequest)
		return
	}
	rw := newRowWriter()
	rw.string("aggregation", agg)
	rw.int("window_start", snap.Start)
	if rows, cols := ranked(snap, col, n); rows == nil {
		rw.field("rows")
		rw.b = append(rw.b, "null"...) // a snapshot with no rows: always null here
	} else {
		rw.rows("rows", rows, cols)
	}
	rw.send(w)
}

// Detection snapshot aggregation names. Mirrors detect.AggESLD and
// detect.AggNOD; duplicated like observatoryIngested to keep webui
// decoupled from the detection package.
const (
	detectESLD = "detect_esld"
	detectNOD  = "detect_nod"
)

// handleDetect serves GET /api/detect — the latest detection window in
// one response: information-content heavy hitters ranked by score and
// newly observed domains ranked by hits. ?n caps each list (default
// 50). 404 until the first detection window has been dumped (the
// engines only emit these snapshots when detection is enabled).
func (s *Server) handleDetect(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	ic := s.latest[detectESLD]
	nod := s.latest[detectNOD]
	s.mu.RUnlock()
	if ic == nil && nod == nil {
		http.Error(w, "detection not enabled", http.StatusNotFound)
		return
	}
	n := 50
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 || v > 100000 {
			http.Error(w, "bad n", http.StatusBadRequest)
			return
		}
		n = v
	}
	rw := newRowWriter()
	if ic != nil {
		rw.int("window_start", ic.Start)
	} else {
		rw.int("window_start", nod.Start)
	}
	rows, cols := ranked(ic, "score", n)
	rw.rows("heavy_hitters", rows, cols)
	rows, cols = ranked(nod, "hits", n)
	rw.rows("newly_observed", rows, cols)
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
	if s.engine == nil {
		http.Error(w, "no store attached", http.StatusNotFound)
		return
	}
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
	}
	for _, spec := range qp["where"] {
		parts := strings.Split(spec, ":")
		if len(parts) != 3 || parts[0] == "" {
			http.Error(w, "bad where (want col:min:max)", http.StatusBadRequest)
			return
		}
		p := tsv.Pred{Col: parts[0], Min: math.Inf(-1), Max: math.Inf(1)}
		if parts[1] != "" {
			v, err := strconv.ParseFloat(parts[1], 64)
			if err != nil {
				http.Error(w, "bad where min", http.StatusBadRequest)
				return
			}
			p.Min = v
		}
		if parts[2] != "" {
			v, err := strconv.ParseFloat(parts[2], 64)
			if err != nil {
				http.Error(w, "bad where max", http.StatusBadRequest)
				return
			}
			p.Max = v
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
	if s.store == nil {
		http.Error(w, "no store attached", http.StatusNotFound)
		return
	}
	agg := r.PathValue("agg")
	type fileInfo struct {
		Level string `json:"level"`
		Start int64  `json:"start"`
		Name  string `json:"name"`
	}
	var files []fileInfo
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
	if s.store == nil {
		http.Error(w, "no store attached", http.StatusNotFound)
		return
	}
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
