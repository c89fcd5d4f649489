package webui

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"dnsobservatory/internal/metrics"
	"dnsobservatory/internal/tsv"
)

func snapshotFixture(agg string, start int64) *tsv.Snapshot {
	return &tsv.Snapshot{
		Aggregation: agg,
		Level:       tsv.Minutely,
		Start:       start,
		Columns:     []string{"hits", "nxd"},
		Kinds:       []tsv.Kind{tsv.Counter, tsv.Counter},
		Rows: []tsv.Row{
			{Key: "198.51.100.1", Values: []float64{100, 10}},
			{Key: "198.51.100.2", Values: []float64{300, 200}},
			{Key: "198.51.100.3", Values: []float64{50, 1}},
		},
		Windows: 1,
	}
}

// put stores snaps, failing the test on the first error.
func put(t *testing.T, st *tsv.Store, snaps ...*tsv.Snapshot) {
	t.Helper()
	for _, snap := range snaps {
		if err := st.Put(snap); err != nil {
			t.Fatal(err)
		}
	}
}

func newTestServer(t *testing.T, withStore bool) (*Server, *httptest.Server) {
	t.Helper()
	var store *tsv.Store
	if withStore {
		var err error
		store, err = tsv.NewStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { store.Close() })
	}
	s := NewServer(store)
	s.Registry = metrics.NewRegistry() // isolate from other tests
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestHealthz(t *testing.T) {
	s, ts := newTestServer(t, false)
	// /healthz reads what the engines publish to the registry: no
	// per-transaction or per-window hook the wiring could forget. The
	// flush histogram is observed once per window.
	s.Registry.Counter(observatoryIngested, "", "engine", "serial").Add(2)
	s.Registry.Histogram(observatoryFlush, "", metrics.DurationBuckets, "engine", "serial").Observe(0.001)
	code, body := get(t, ts.URL+"/healthz")
	if code != 200 {
		t.Fatalf("code %d", code)
	}
	var h struct {
		OK           bool   `json:"ok"`
		Transactions uint64 `json:"transactions"`
		Windows      uint64 `json:"windows"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.Transactions != 2 || h.Windows != 1 {
		t.Errorf("health = %+v", h)
	}
	if strings.Contains(body, `"sensors"`) {
		t.Errorf("sensors key present without a Sensors hook:\n%s", body)
	}
}

func TestHealthzSensors(t *testing.T) {
	s, ts := newTestServer(t, false)
	type sensor struct {
		Name      string `json:"name"`
		Connected bool   `json:"connected"`
	}
	s.Sensors = func() any { return []sensor{{Name: "edge-1", Connected: true}} }
	code, body := get(t, ts.URL+"/healthz")
	if code != 200 {
		t.Fatalf("code %d", code)
	}
	var h struct {
		Sensors []sensor `json:"sensors"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if len(h.Sensors) != 1 || h.Sensors[0].Name != "edge-1" || !h.Sensors[0].Connected {
		t.Errorf("sensors = %+v", h.Sensors)
	}
}

func TestHealthzProbe(t *testing.T) {
	s, ts := newTestServer(t, false)
	type status struct {
		Issued   uint64 `json:"issued"`
		Answered uint64 `json:"answered"`
	}
	s.Probe = func() any { return status{Issued: 42, Answered: 40} }
	code, body := get(t, ts.URL+"/healthz")
	if code != 200 {
		t.Fatalf("code %d", code)
	}
	var h struct {
		Probe *status `json:"probe"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h.Probe == nil || h.Probe.Issued != 42 || h.Probe.Answered != 40 {
		t.Errorf("probe = %+v", h.Probe)
	}
}

// TestEncDNSEndpoint: /api/encdns serves the Enc hook's status and
// /healthz mirrors it under "enc"; 404 when no hook is wired (the
// plaintext deployment default).
func TestEncDNSEndpoint(t *testing.T) {
	s, ts := newTestServer(t, false)
	if code, _ := get(t, ts.URL+"/api/encdns"); code != 404 {
		t.Fatalf("no-hook code = %d, want 404", code)
	}
	type modeStat struct {
		Mode     string `json:"mode"`
		Messages uint64 `json:"messages"`
	}
	s.Enc = func() any { return []modeStat{{Mode: "doh", Messages: 1234}} }
	code, body := get(t, ts.URL+"/api/encdns")
	if code != 200 {
		t.Fatalf("code %d: %s", code, body)
	}
	var out []modeStat
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Mode != "doh" || out[0].Messages != 1234 {
		t.Errorf("encdns = %+v", out)
	}
	_, body = get(t, ts.URL+"/healthz")
	var h struct {
		Enc []modeStat `json:"enc"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if len(h.Enc) != 1 || h.Enc[0].Messages != 1234 {
		t.Errorf("healthz enc = %+v", h.Enc)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s, ts := newTestServer(t, false)
	s.Registry.Counter(observatoryIngested, "transactions", "engine", "sharded").Add(7)
	s.Registry.Histogram("dnsobs_engine_flush_seconds", "", metrics.DurationBuckets, "engine", "sharded").Observe(0.002)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != metrics.PrometheusContentType {
		t.Errorf("Content-Type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"# TYPE dnsobs_engine_ingested_total counter",
		`dnsobs_engine_ingested_total{engine="sharded"} 7`,
		"# TYPE dnsobs_engine_flush_seconds histogram",
		`dnsobs_engine_flush_seconds_count{engine="sharded"} 1`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("exposition missing %q:\n%s", want, body)
		}
	}
}

func TestMetricszEndpoint(t *testing.T) {
	s, ts := newTestServer(t, false)
	s.Registry.Gauge("dnsobs_topk_occupancy", "", "agg", "srvip").Set(42)
	code, body := get(t, ts.URL+"/api/metricsz")
	if code != 200 {
		t.Fatalf("code %d", code)
	}
	var fams []metrics.JSONFamily
	if err := json.Unmarshal([]byte(body), &fams); err != nil {
		t.Fatalf("metricsz not valid JSON: %v", err)
	}
	if len(fams) != 1 || fams[0].Name != "dnsobs_topk_occupancy" {
		t.Fatalf("families = %+v", fams)
	}
	m := fams[0].Metrics[0]
	if m.Labels["agg"] != "srvip" || m.Value == nil || *m.Value != 42 {
		t.Errorf("metric = %+v", m)
	}
}

func TestPprofGating(t *testing.T) {
	_, ts := newTestServer(t, false)
	if code, _ := get(t, ts.URL+"/debug/pprof/"); code != 404 {
		t.Errorf("pprof served while disabled: %d", code)
	}
	s2 := NewServer(nil)
	s2.Registry = metrics.NewRegistry()
	s2.EnablePprof = true
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	code, body := get(t, ts2.URL+"/debug/pprof/")
	if code != 200 || !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index: code %d body %.80s", code, body)
	}
}

func TestAggregations(t *testing.T) {
	s, ts := newTestServer(t, true)
	for _, agg := range []string{"srvip", "qname", "esld", "aafqdn", "qtype"} {
		put(t, s.store, snapshotFixture(agg, 0))
	}
	// Sorted, so every call gives the same answer: map order would
	// differ between calls.
	for i := 0; i < 5; i++ {
		code, body := get(t, ts.URL+"/api/aggregations")
		if code != 200 {
			t.Fatalf("code %d", code)
		}
		var names []string
		if err := json.Unmarshal([]byte(body), &names); err != nil {
			t.Fatal(err)
		}
		if want := []string{"aafqdn", "esld", "qname", "qtype", "srvip"}; !slices.Equal(names, want) {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
}

func TestTop(t *testing.T) {
	s, ts := newTestServer(t, true)
	// The newest window answers, not the busier one before it.
	older := snapshotFixture("srvip", 0)
	older.Rows = append(older.Rows, tsv.Row{Key: "198.51.100.9", Values: []float64{5000, 1}})
	put(t, s.store, older, snapshotFixture("srvip", 60))
	code, body := get(t, ts.URL+"/api/top/srvip?n=2")
	if code != 200 {
		t.Fatalf("code %d: %s", code, body)
	}
	var out struct {
		Aggregation string `json:"aggregation"`
		WindowStart int64  `json:"window_start"`
		Rows        []struct {
			Rank   int                `json:"rank"`
			Key    string             `json:"key"`
			Values map[string]float64 `json:"values"`
		} `json:"rows"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if out.WindowStart != 60 || len(out.Rows) != 2 {
		t.Fatalf("out = %+v", out)
	}
	if out.Rows[0].Key != "198.51.100.2" || out.Rows[0].Values["hits"] != 300 {
		t.Errorf("top row = %+v", out.Rows[0])
	}

	// Sort by another column.
	code, body = get(t, ts.URL+"/api/top/srvip?n=1&col=nxd")
	if code != 200 {
		t.Fatalf("code %d", code)
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if out.Rows[0].Values["nxd"] != 200 {
		t.Errorf("nxd-sorted top = %+v", out.Rows[0])
	}
}

func TestTopErrors(t *testing.T) {
	s, ts := newTestServer(t, true)
	put(t, s.store, snapshotFixture("srvip", 0))
	for path, want := range map[string]int{
		"/api/top/unknown":       404,
		"/api/top/srvip?n=0":     400,
		"/api/top/srvip?n=x":     400,
		"/api/top/srvip?col=zzz": 400,
	} {
		if code, _ := get(t, ts.URL+path); code != want {
			t.Errorf("%s: code %d, want %d", path, code, want)
		}
	}
}

func TestFilesAndDownload(t *testing.T) {
	s, ts := newTestServer(t, true)
	snap := snapshotFixture("srvip", 120)
	if err := s.store.Put(snap); err != nil {
		t.Fatal(err)
	}
	code, body := get(t, ts.URL+"/api/files/srvip")
	if code != 200 {
		t.Fatalf("files code %d", code)
	}
	if !strings.Contains(body, "srvip-min-120.tsv") {
		t.Errorf("files body: %s", body)
	}
	code, body = get(t, ts.URL+"/files/srvip/min/120")
	if code != 200 {
		t.Fatalf("download code %d", code)
	}
	if !strings.HasPrefix(body, "#key\thits\tnxd\n") {
		t.Errorf("tsv body:\n%s", body)
	}
	if code, _ := get(t, ts.URL+"/files/srvip/min/999"); code != 404 {
		t.Errorf("missing file code %d", code)
	}
	if code, _ := get(t, ts.URL+"/files/srvip/century/120"); code != 400 {
		t.Errorf("bad level code %d", code)
	}
}

// TestFilesOfAnEmptyAggregation: an aggregation with no files lists as
// [], as /api/aggregations and /api/query's rows do, not as null.
func TestFilesOfAnEmptyAggregation(t *testing.T) {
	for _, backend := range []string{tsv.BackendTSV, tsv.BackendColumnar} {
		t.Run(backend, func(t *testing.T) {
			store, err := tsv.NewStoreBackend(t.TempDir(), backend)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { store.Close() })
			put(t, store, snapshotFixture("srvip", 120))
			ts := httptest.NewServer(NewServer(store).Handler())
			t.Cleanup(ts.Close)
			if code, body := get(t, ts.URL+"/api/files/qname"); code != 200 || body != "[]\n" {
				t.Errorf("files of an aggregation with none: %d %q, want 200 and []", code, body)
			}
		})
	}
}

func TestStorelessFileEndpoints(t *testing.T) {
	_, ts := newTestServer(t, false)
	if code, _ := get(t, ts.URL+"/api/files/srvip"); code != 404 {
		t.Errorf("files without store: %d", code)
	}
	if code, _ := get(t, ts.URL+"/files/srvip/min/0"); code != 404 {
		t.Errorf("file without store: %d", code)
	}
}

// TestStorelessRowEndpoints: the windows /api/top, /api/detect and
// /api/aggregations report are the store's, so a server with none
// answers them as /api/query does.
func TestStorelessRowEndpoints(t *testing.T) {
	_, ts := newTestServer(t, false)
	for _, path := range []string{"/api/top/srvip", "/api/detect", "/api/aggregations"} {
		if code, body := get(t, ts.URL+path); code != 404 || body != "no store attached\n" {
			t.Errorf("%s without store: %d %q", path, code, body)
		}
	}
}

func detectFixture(agg string, cols []string, start int64) *tsv.Snapshot {
	return &tsv.Snapshot{
		Aggregation: agg,
		Level:       tsv.Minutely,
		Start:       start,
		Columns:     cols,
		Kinds:       make([]tsv.Kind, len(cols)),
		Rows: []tsv.Row{
			{Key: "low.example.", Values: make([]float64, len(cols))},
			{Key: "hot.example.", Values: func() []float64 {
				v := make([]float64, len(cols))
				for i := range v {
					v[i] = float64(10 * (i + 1))
				}
				return v
			}()},
		},
		Windows: 1,
	}
}

func TestDetectEndpoint(t *testing.T) {
	s, ts := newTestServer(t, true)

	// 404 until a detection window lands.
	if code, _ := get(t, ts.URL+"/api/detect"); code != 404 {
		t.Fatalf("no-detect code = %d, want 404", code)
	}

	esld := []string{"score", "hits", "rate", "entropy", "sublen"}
	older := detectFixture(detectESLD, esld, 60)
	older.Rows[0].Values[0] = 99 // the top of an older window
	put(t, s.store, older,
		detectFixture(detectESLD, esld, 120),
		detectFixture(detectNOD, []string{"hits", "first_seen"}, 120))
	code, body := get(t, ts.URL+"/api/detect")
	if code != 200 {
		t.Fatalf("code %d: %s", code, body)
	}
	var out struct {
		WindowStart  int64 `json:"window_start"`
		HeavyHitters []struct {
			Rank   int                `json:"rank"`
			Key    string             `json:"key"`
			Values map[string]float64 `json:"values"`
		} `json:"heavy_hitters"`
		NewlyObserved []struct {
			Key string `json:"key"`
		} `json:"newly_observed"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if out.WindowStart != 120 {
		t.Errorf("window_start = %d, want 120", out.WindowStart)
	}
	if len(out.HeavyHitters) != 2 || out.HeavyHitters[0].Key != "hot.example." {
		t.Errorf("heavy hitters ranked wrong: %+v", out.HeavyHitters)
	}
	if out.HeavyHitters[0].Rank != 1 || out.HeavyHitters[0].Values["score"] != 10 {
		t.Errorf("rank/values wrong: %+v", out.HeavyHitters[0])
	}
	if len(out.NewlyObserved) != 2 || out.NewlyObserved[0].Key != "hot.example." {
		t.Errorf("newly observed ranked wrong: %+v", out.NewlyObserved)
	}

	// ?n caps each list; bad n rejected.
	_, body = get(t, ts.URL+"/api/detect?n=1")
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.HeavyHitters) != 1 || len(out.NewlyObserved) != 1 {
		t.Errorf("n=1 cap not applied: %d/%d", len(out.HeavyHitters), len(out.NewlyObserved))
	}
	if code, _ := get(t, ts.URL+"/api/detect?n=0"); code != 400 {
		t.Errorf("bad n code = %d, want 400", code)
	}
}

func TestDetectEndpointOneSided(t *testing.T) {
	// Only the NOD snapshot present: the endpoint still serves, with an
	// empty heavy-hitter list and the NOD window start.
	s, ts := newTestServer(t, true)
	put(t, s.store, detectFixture(detectNOD, []string{"hits", "first_seen"}, 60))
	code, body := get(t, ts.URL+"/api/detect")
	if code != 200 {
		t.Fatalf("code %d", code)
	}
	var out struct {
		WindowStart   int64             `json:"window_start"`
		HeavyHitters  []json.RawMessage `json:"heavy_hitters"`
		NewlyObserved []json.RawMessage `json:"newly_observed"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if out.WindowStart != 60 || len(out.HeavyHitters) != 0 || len(out.NewlyObserved) != 2 {
		t.Errorf("one-sided response wrong: %s", body)
	}
}

// versionSnap is version v of agg's window at start: four rows whose
// values name v, so an answer shows which file it was read from.
func versionSnap(agg string, start int64, v int) *tsv.Snapshot {
	s := &tsv.Snapshot{Aggregation: agg, Level: tsv.Minutely, Start: start,
		Columns: []string{"hits", "nxd"}, Kinds: []tsv.Kind{tsv.Counter, tsv.Gauge}, Windows: 1}
	for i := 0; i < 4; i++ {
		s.Rows = append(s.Rows, tsv.Row{Key: fmt.Sprintf("k%d", i), Values: []float64{float64(1000*v + 10*i), float64(v)}})
	}
	return s
}

// TestTopSeesOldOrNewFile: /api/top reads the newest window while a
// writer re-Puts it (and the windows before it) and Retention deletes
// the older minutes. Every answer is one whole version of the newest
// window, the old file or the new one: never a mix of two, a 404 or an
// error.
func TestTopSeesOldOrNewFile(t *testing.T) {
	const windows = 4
	for _, backend := range []string{tsv.BackendTSV, tsv.BackendColumnar} {
		t.Run(backend, func(t *testing.T) {
			store, err := tsv.NewStoreBackend(t.TempDir(), backend)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { store.Close() })
			store.Retain[tsv.Minutely] = 2
			// The 10-minute window above lets Retention delete minutes.
			put(t, store, &tsv.Snapshot{Aggregation: "race", Level: tsv.Decaminutely, Columns: []string{"hits", "nxd"},
				Kinds: []tsv.Kind{tsv.Counter, tsv.Gauge}, Windows: 10})
			for w := int64(0); w < windows; w++ {
				put(t, store, versionSnap("race", w*60, 0))
			}
			s := NewServer(store)
			s.Registry = metrics.NewRegistry()
			ts := httptest.NewServer(s.Handler())
			t.Cleanup(ts.Close)

			done := make(chan struct{})
			errs := make(chan error, 3)
			var wg sync.WaitGroup
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-done:
							return
						default:
						}
						if err := topIsOneVersion(ts.URL+"/api/top/race?n=3", (windows-1)*60); err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					if err := store.Retention("race"); err != nil {
						errs <- err
						return
					}
					runtime.Gosched()
				}
			}()
			for v := 1; v <= 200; v++ {
				put(t, store, versionSnap("race", int64(v%windows)*60, v))
				runtime.Gosched()
			}
			close(done)
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// topIsOneVersion fetches url, an /api/top of versionSnap windows, and
// reports an answer that is not the window at start read whole from one
// version: its three strongest rows, ranked.
func topIsOneVersion(url string, start int64) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	var out struct {
		WindowStart int64 `json:"window_start"`
		Rows        []struct {
			Key    string             `json:"key"`
			Values map[string]float64 `json:"values"`
		} `json:"rows"`
	}
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &out) != nil || out.WindowStart != start || len(out.Rows) != 3 {
		return fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	v := out.Rows[0].Values["nxd"]
	for i, r := range out.Rows {
		if r.Key != fmt.Sprintf("k%d", 3-i) || r.Values["nxd"] != v || r.Values["hits"] != 1000*v+float64(10*(3-i)) {
			return fmt.Errorf("not one version of the window: %s", body)
		}
	}
	return nil
}

// TestServesStoreOfEarlierProcess: the windows a server reports are the
// store's, so a server over a directory an earlier process wrote answers
// /api/top, /api/detect and /api/aggregations at once, before any window
// of its own has closed.
func TestServesStoreOfEarlierProcess(t *testing.T) {
	dir := t.TempDir()
	earlier, err := tsv.NewColumnarStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	put(t, earlier, snapshotFixture("srvip", 60),
		detectFixture(detectESLD, []string{"score", "hits"}, 60),
		detectFixture(detectNOD, []string{"hits", "first_seen"}, 60))
	if err := earlier.Close(); err != nil {
		t.Fatal(err)
	}

	store, err := tsv.NewColumnarStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	s := NewServer(store)
	s.Registry = metrics.NewRegistry()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	for path, want := range map[string]string{
		"/api/aggregations":  `["detect_esld","detect_nod","srvip"]`,
		"/api/top/srvip?n=1": `{"aggregation":"srvip","window_start":60,"rows":[{"rank":1,"key":"198.51.100.2","values":{"hits":300,"nxd":200}}]}`,
		"/api/detect?n=1": `{"window_start":60,` +
			`"heavy_hitters":[{"rank":1,"key":"hot.example.","values":{"hits":20,"score":10}}],` +
			`"newly_observed":[{"rank":1,"key":"hot.example.","values":{"first_seen":20,"hits":10}}]}`,
	} {
		if code, body := get(t, ts.URL+path); code != http.StatusOK || body != want+"\n" {
			t.Errorf("%s: status %d\n got %q\nwant %q", path, code, body, want)
		}
	}
}

// TestRowEndpointsUnreadableStore: a store whose directory cannot be
// listed is a server error, not an aggregation that is not there.
func TestRowEndpointsUnreadableStore(t *testing.T) {
	s, ts := newTestServer(t, true)
	if err := os.RemoveAll(s.store.Dir()); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/api/top/srvip", "/api/detect", "/api/aggregations"} {
		if code, body := get(t, ts.URL+path); code != http.StatusInternalServerError {
			t.Errorf("%s over a removed directory: %d %q", path, code, body)
		}
	}
}
