package webui

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"unicode/utf8"

	"dnsobservatory/internal/metrics"
	"dnsobservatory/internal/tsv"
)

// The row endpoints as they were written with encoding/json, frozen as
// the oracle the row writer is held to byte for byte: topRow, ranked
// and the three response structs are the old handlers' own.

type topRow struct {
	Rank   int                `json:"rank"`
	Key    string             `json:"key"`
	Values map[string]float64 `json:"values"`
}

func oracleRanked(snap *tsv.Snapshot, col string, n int) ([]topRow, bool) {
	idx := slices.Index(snap.Columns, col)
	if idx < 0 {
		return nil, false
	}
	var rows []topRow
	for i, r := range tsv.TopRows(snap.Rows, idx, n) {
		row := topRow{Rank: i + 1, Key: r.Key, Values: map[string]float64{}}
		for c, name := range snap.Columns {
			row.Values[name] = r.Values[c]
		}
		rows = append(rows, row)
	}
	return rows, true
}

func oracleJSON(t *testing.T, v any) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func oracleTop(t *testing.T, snap *tsv.Snapshot, col string, n int) string {
	rows, ok := oracleRanked(snap, col, n)
	if !ok {
		t.Fatalf("no column %q", col)
	}
	return oracleJSON(t, struct {
		Aggregation string   `json:"aggregation"`
		WindowStart int64    `json:"window_start"`
		Rows        []topRow `json:"rows"`
	}{Aggregation: snap.Aggregation, WindowStart: snap.Start, Rows: rows})
}

func oracleDetect(t *testing.T, ic, nod *tsv.Snapshot, n int) string {
	rank := func(snap *tsv.Snapshot, col string) []topRow {
		if snap == nil {
			return []topRow{}
		}
		rows, _ := oracleRanked(snap, col, n)
		return append([]topRow{}, rows...)
	}
	out := struct {
		WindowStart   int64    `json:"window_start"`
		HeavyHitters  []topRow `json:"heavy_hitters"`
		NewlyObserved []topRow `json:"newly_observed"`
	}{HeavyHitters: rank(ic, "score"), NewlyObserved: rank(nod, "hits")}
	switch {
	case ic != nil:
		out.WindowStart = ic.Start
	case nod != nil:
		out.WindowStart = nod.Start
	}
	return oracleJSON(t, out)
}

func oracleQuery(t *testing.T, res *tsv.Result) string {
	out := struct {
		Aggregation    string   `json:"aggregation"`
		Level          string   `json:"level"`
		From           int64    `json:"from"`
		To             int64    `json:"to"`
		Windows        int      `json:"windows"`
		Files          int      `json:"files"`
		CorruptSkipped int      `json:"corrupt_skipped,omitempty"`
		Columns        []string `json:"columns"`
		Rows           []topRow `json:"rows"`
	}{
		Aggregation: res.Agg, Level: res.Level.Name(),
		From: res.From, To: res.To,
		Windows: res.Windows, Files: res.Files, CorruptSkipped: res.CorruptSkipped,
		Columns: res.Columns, Rows: []topRow{},
	}
	for i := range res.Rows {
		row := topRow{Rank: i + 1, Key: res.Rows[i].Key, Values: map[string]float64{}}
		for c, name := range res.Columns {
			row.Values[name] = res.Rows[i].Values[c]
		}
		out.Rows = append(out.Rows, row)
	}
	return oracleJSON(t, out)
}

// awkwardKeys are keys every store can hold (no tab, no newline) that
// JSON escapes: HTML's <>&, the JavaScript line separators, invalid
// UTF-8, quotes, backslashes and control bytes.
var awkwardKeys = []string{
	"<script>&amp;", "a\u2028b\u2029c", "bad\xffutf8\xc3", "quote\"back\\slash",
	"ctl\x01\x1f\x7f\b\f\r", "é.example.", "日本.jp.", "\xed\xa0\x80surrogate",
}

// awkwardValues are finite values at encoding/json's format edges.
var awkwardValues = []float64{1e-7, 1e21, math.Copysign(0, -1), 5e-324, 1e-6, 9.999999e20,
	-1e-7, 123456789.125, 2.2250738585072014e-308, 1e300, 0.1, -42}

// awkwardSnapshot is window start of agg with the awkward keys and
// values, and ordinary rows between them.
func awkwardSnapshot(agg string, start int64) *tsv.Snapshot {
	s := &tsv.Snapshot{
		Aggregation: agg, Level: tsv.Minutely, Start: start,
		Columns: []string{"hits", "score", "p&q", "<v>", "delay"},
		Kinds:   []tsv.Kind{tsv.Counter, tsv.Gauge, tsv.Counter, tsv.Gauge, tsv.Gauge},
		Windows: 1, TotalBefore: 1000, TotalAfter: 900,
	}
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("obj-%02d.example.", i)
		if i < len(awkwardKeys) {
			key = awkwardKeys[i]
		}
		vals := make([]float64, len(s.Columns))
		for c := range vals {
			vals[c] = awkwardValues[(i*len(vals)+c+int(start/60))%len(awkwardValues)]
		}
		vals[0] = float64((i*37+int(start))%50) + 1
		s.Rows = append(s.Rows, tsv.Row{Key: key, Values: vals})
	}
	return s
}

// TestRowEndpointsMatchEncodingJSON: /api/query, /api/top and
// /api/detect answer byte for byte what encoding/json wrote for the old
// handlers' structs, on both backends, for keys and column names JSON
// must escape and values at every float-format edge.
func TestRowEndpointsMatchEncodingJSON(t *testing.T) {
	for _, backend := range []string{tsv.BackendTSV, tsv.BackendColumnar} {
		t.Run(backend, func(t *testing.T) {
			store, err := tsv.NewStoreBackend(t.TempDir(), backend)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { store.Close() })
			for i := int64(0); i < 3; i++ {
				if err := store.Put(awkwardSnapshot("srvip", i*60)); err != nil {
					t.Fatal(err)
				}
			}
			s := NewServer(store)
			s.Registry = metrics.NewRegistry()
			ts := httptest.NewServer(s.Handler())
			t.Cleanup(ts.Close)

			for _, c := range []struct {
				params string
				q      tsv.Query
			}{
				{"agg=srvip", tsv.Query{K: 50}},
				{"agg=srvip&k=0", tsv.Query{}},
				{"agg=srvip&from=60&to=120&k=0", tsv.Query{From: 60, To: 120}},
				{"agg=srvip&cols=delay,%3Cv%3E&order=p%26q&k=7", tsv.Query{Columns: []string{"delay", "<v>"}, OrderBy: "p&q", K: 7}},
				{"agg=srvip&cols=hits,score,hits&k=5", tsv.Query{Columns: []string{"hits", "score", "hits"}, K: 5}},
				{"agg=srvip&key=bad%FFutf8%C3", tsv.Query{Key: "bad\xffutf8\xc3", K: 50}},
				{"agg=srvip&key=a%E2%80%A8b%E2%80%A9c&from=120", tsv.Query{Key: "a\u2028b\u2029c", From: 120, K: 50}},
				{"agg=srvip&where=hits:20:&order=score", tsv.Query{Where: []tsv.Pred{{Col: "hits", Min: 20, Max: math.Inf(1)}}, OrderBy: "score", K: 50}},
				{"agg=srvip&where=hits:1000:", tsv.Query{Where: []tsv.Pred{{Col: "hits", Min: 1000, Max: math.Inf(1)}}, K: 50}},
			} {
				c.q.Agg, c.q.Level = "srvip", tsv.Minutely
				res, err := tsv.RunQuery(store, c.q)
				if err != nil {
					t.Fatal(err)
				}
				code, body := get(t, ts.URL+"/api/query?"+c.params)
				if want := oracleQuery(t, res); code != http.StatusOK || body != want {
					t.Errorf("?%s: status %d\n got %q\nwant %q", c.params, code, body, want)
				}
			}

			// The live endpoints, fed what the store gives back.
			var windows []*tsv.Snapshot
			for i := int64(0); i < 3; i++ {
				snap, err := store.Get("srvip", tsv.Minutely, i*60)
				if err != nil {
					t.Fatal(err)
				}
				snap.Aggregation = detectESLD
				windows = append(windows, snap)
			}
			nod := *windows[1]
			nod.Aggregation = detectNOD
			empty := &tsv.Snapshot{Aggregation: "empty", Start: 60, Columns: []string{"hits"}, Kinds: []tsv.Kind{tsv.Counter}}
			s.OnSnapshot(windows[0])
			s.OnSnapshot(empty)
			for _, c := range []struct {
				path, want string
			}{
				{"/api/top/" + detectESLD, oracleTop(t, windows[0], "hits", 50)},
				{"/api/top/" + detectESLD + "?n=3&col=%3Cv%3E", oracleTop(t, windows[0], "<v>", 3)},
				{"/api/top/" + detectESLD + "?n=1000&col=delay", oracleTop(t, windows[0], "delay", 1000)},
				{"/api/top/empty", oracleTop(t, empty, "hits", 50)},
				{"/api/detect?n=4", oracleDetect(t, windows[0], nil, 4)},
			} {
				if code, body := get(t, ts.URL+c.path); code != http.StatusOK || body != c.want {
					t.Errorf("%s: status %d\n got %q\nwant %q", c.path, code, body, c.want)
				}
			}
			s.OnSnapshot(&nod)
			s.OnSnapshot(windows[2])
			if code, body := get(t, ts.URL+"/api/detect?n=6"); code != http.StatusOK || body != oracleDetect(t, windows[2], &nod, 6) {
				t.Errorf("/api/detect: status %d\n got %q\nwant %q", code, body, oracleDetect(t, windows[2], &nod, 6))
			}
		})
	}
	for _, escaped := range []string{`\u003cscript\u003e\u0026amp;`, `a\u2028b\u2029c`, `bad\ufffdutf8\ufffd`, "ctl\\u0001\\u001f\x7f\\b\\f\\r"} {
		if !strings.Contains(oracleJSON(t, awkwardKeys), escaped) {
			t.Errorf("the oracle writes no %s: the fixture does not test that escape", escaped)
		}
	}
}

// TestQueryNonFiniteIsNull: the store keeps NaN and ±Inf, which JSON has
// no number for. Such a cell is null and every other cell is unchanged;
// encoding/json failed the whole response, leaving a 200 with no body.
func TestQueryNonFiniteIsNull(t *testing.T) {
	for _, backend := range []string{tsv.BackendTSV, tsv.BackendColumnar} {
		t.Run(backend, func(t *testing.T) {
			store, err := tsv.NewStoreBackend(t.TempDir(), backend)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { store.Close() })
			if err := store.Put(&tsv.Snapshot{Aggregation: "odd", Level: tsv.Minutely,
				Columns: []string{"hits", "delay"}, Kinds: []tsv.Kind{tsv.Counter, tsv.Gauge}, Windows: 1,
				Rows: []tsv.Row{
					{Key: "a", Values: []float64{3, math.NaN()}},
					{Key: "b", Values: []float64{2, math.Inf(1)}},
					{Key: "c", Values: []float64{1, math.Inf(-1)}},
					{Key: "d", Values: []float64{0.5, 7}},
				}}); err != nil {
				t.Fatal(err)
			}
			s := NewServer(store)
			s.Registry = metrics.NewRegistry()
			ts := httptest.NewServer(s.Handler())
			t.Cleanup(ts.Close)
			code, body := get(t, ts.URL+"/api/query?agg=odd")
			var out struct {
				Rows []struct {
					Key    string              `json:"key"`
					Values map[string]*float64 `json:"values"`
				} `json:"rows"`
			}
			if err := json.Unmarshal([]byte(body), &out); code != http.StatusOK || err != nil {
				t.Fatalf("status %d, %v: %q", code, err, body)
			}
			if len(out.Rows) != 4 {
				t.Fatalf("rows = %q", body)
			}
			for i, r := range out.Rows {
				hits, delay := r.Values["hits"], r.Values["delay"]
				if r.Key != "abcd"[i:i+1] || hits == nil || *hits != []float64{3, 2, 1, 0.5}[i] {
					t.Errorf("row %d = %q", i, body)
				}
				if (i < 3) != (delay == nil) || (i == 3 && *delay != 7) {
					t.Errorf("row %d: delay %v in %q", i, delay, body)
				}
			}
		})
	}
}

// TestQueryAllocsPerRow: a response costs no allocation per row. The
// same files answered at k=10 and k=100 differ by less than a tenth of
// an object per further row (building a map per row and sorting its
// keys by reflection cost about ten).
func TestQueryAllocsPerRow(t *testing.T) {
	var probe sync.Pool
	for i := 0; i < 64; i++ {
		x := new(int)
		if probe.Put(x); probe.Get() != any(x) {
			t.Skip("sync.Pool is dropping objects (race detector): allocation is not what it is in production")
		}
	}
	for _, backend := range []string{tsv.BackendTSV, tsv.BackendColumnar} {
		store, err := tsv.NewStoreBackend(t.TempDir(), backend)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 4; i++ {
			snap := awkwardSnapshot("srvip", i*60)
			for r := 0; r < 200; r++ {
				snap.Rows = append(snap.Rows, tsv.Row{Key: fmt.Sprintf("more-%03d.example.", r),
					Values: []float64{float64(r), 0.5, 3, float64(r) / 7, 1e-9 * float64(r)}})
			}
			if err := store.Put(snap); err != nil {
				t.Fatal(err)
			}
		}
		h := NewServer(store).Handler()
		allocs := func(k int) float64 {
			req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/api/query?agg=srvip&k=%d", k), nil)
			w := &discardWriter{header: http.Header{}}
			return testing.AllocsPerRun(50, func() {
				if h.ServeHTTP(w, req); w.status != 0 && w.status != http.StatusOK {
					t.Fatalf("status %d", w.status)
				}
			})
		}
		a10, a100 := allocs(10), allocs(100)
		perRow := (a100 - a10) / 90
		t.Logf("%s: %.1f objects at k=10, %.1f at k=100: %.3f per further row", backend, a10, a100, perRow)
		if perRow >= 0.1 {
			t.Errorf("%s: /api/query allocates %.2f objects per row, budget 0.1", backend, perRow)
		}
		store.Close()
	}
}

// discardWriter is a ResponseWriter that keeps nothing it is sent.
type discardWriter struct {
	header http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) WriteHeader(code int)        { w.status = code }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// FuzzAppendJSONMatchesEncoding holds the row writer's string and
// number encoders to encoding/json for any string and any finite float.
func FuzzAppendJSONMatchesEncoding(f *testing.F) {
	for _, k := range awkwardKeys {
		f.Add(k, 1.5)
	}
	for _, v := range awkwardValues {
		f.Add("k", v)
	}
	f.Add(" \x00<>&\"\\\t\n\r\b\f", 1e20)
	f.Add(string([]byte{0xf4, 0x90, 0x80, 0x80}), -1e-300)
	f.Fuzz(func(t *testing.T, s string, v float64) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("appendString(%q) = %s, encoding/json writes %s", s, got, want)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			if got := appendFloat(nil, v); string(got) != "null" {
				t.Fatalf("appendFloat(%v) = %s, want null", v, got)
			}
			return
		}
		if want, err = json.Marshal(v); err != nil {
			t.Fatal(err)
		}
		if got := appendFloat(nil, v); !bytes.Equal(got, want) {
			t.Fatalf("appendFloat(%v) = %s, encoding/json writes %s", v, got, want)
		}
		if !utf8.Valid(appendString(nil, s)) {
			t.Fatalf("appendString(%q) is not valid UTF-8", s)
		}
	})
}
