package webui

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dnsobservatory/internal/metrics"
	"dnsobservatory/internal/tsv"
)

// queryResponse mirrors handleQuery's JSON shape.
type queryResponse struct {
	Aggregation    string   `json:"aggregation"`
	Level          string   `json:"level"`
	From           int64    `json:"from"`
	To             int64    `json:"to"`
	Windows        int      `json:"windows"`
	Files          int      `json:"files"`
	CorruptSkipped int      `json:"corrupt_skipped"`
	Columns        []string `json:"columns"`
	Rows           []struct {
		Rank   int                `json:"rank"`
		Key    string             `json:"key"`
		Values map[string]float64 `json:"values"`
	} `json:"rows"`
}

// newQueryServer builds a server over a store of the given backend with
// three minutely windows stored.
func newQueryServer(t *testing.T, backend string) *httptest.Server {
	t.Helper()
	store, err := tsv.NewStoreBackend(t.TempDir(), backend)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	for i := int64(0); i < 3; i++ {
		snap := snapshotFixture("srvip", i*60)
		if i == 2 {
			// Window 2 adds a tie with an earlier key than 198.51.100.2.
			snap.Rows = append(snap.Rows, tsv.Row{Key: "198.51.100.0", Values: []float64{900, 5}})
		}
		if err := store.Put(snap); err != nil {
			t.Fatal(err)
		}
	}
	s := NewServer(store)
	s.Registry = metrics.NewRegistry()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func getQuery(t *testing.T, ts *httptest.Server, params string) (int, *queryResponse, string) {
	t.Helper()
	code, body := get(t, ts.URL+"/api/query?"+params)
	if code != http.StatusOK {
		return code, nil, body
	}
	var resp queryResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("bad JSON %q: %v", body, err)
	}
	return code, &resp, body
}

func TestQueryEndpoint(t *testing.T) {
	for _, backend := range []string{tsv.BackendTSV, tsv.BackendColumnar} {
		t.Run(backend, func(t *testing.T) {
			ts := newQueryServer(t, backend)
			code, resp, body := getQuery(t, ts, "agg=srvip")
			if code != http.StatusOK {
				t.Fatalf("status %d: %s", code, body)
			}
			if resp.Files != 3 || resp.Windows != 3 || resp.Level != "min" {
				t.Fatalf("meta = %+v", resp)
			}
			// Counter mean over 3 windows: .2 = 300, .0 = 900/3 = 300,
			// tie broken by ascending key, then .1 = 100, .3 = 50.
			want := []string{"198.51.100.0", "198.51.100.2", "198.51.100.1", "198.51.100.3"}
			if len(resp.Rows) != len(want) {
				t.Fatalf("rows = %+v", resp.Rows)
			}
			for i, k := range want {
				if resp.Rows[i].Key != k || resp.Rows[i].Rank != i+1 {
					t.Fatalf("rank %d = %+v, want key %q", i+1, resp.Rows[i], k)
				}
			}
		})
	}
}

func TestQueryEndpointProjectionAndTopK(t *testing.T) {
	ts := newQueryServer(t, tsv.BackendColumnar)
	code, resp, body := getQuery(t, ts, "agg=srvip&cols=nxd&order=hits&k=2")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	// Projection subset plus the implicit order column.
	if fmt.Sprint(resp.Columns) != "[nxd hits]" {
		t.Fatalf("columns = %v", resp.Columns)
	}
	if len(resp.Rows) != 2 {
		t.Fatalf("rows = %+v", resp.Rows)
	}
	if resp.Rows[0].Key != "198.51.100.0" || resp.Rows[1].Key != "198.51.100.2" {
		t.Fatalf("rows = %+v", resp.Rows)
	}
	if _, ok := resp.Rows[0].Values["nxd"]; !ok {
		t.Fatalf("values missing projected column: %+v", resp.Rows[0].Values)
	}
}

func TestQueryEndpointRangeKeyWhere(t *testing.T) {
	ts := newQueryServer(t, tsv.BackendColumnar)
	// Single-window range.
	code, resp, body := getQuery(t, ts, "agg=srvip&from=60&to=120")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if resp.Files != 1 || resp.From != 60 || resp.To != 60 {
		t.Fatalf("meta = %+v", resp)
	}
	// Point lookup.
	code, resp, body = getQuery(t, ts, "agg=srvip&key=198.51.100.3")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if len(resp.Rows) != 1 || resp.Rows[0].Key != "198.51.100.3" {
		t.Fatalf("rows = %+v", resp.Rows)
	}
	// Open-ended where predicate: hits >= 200 keeps .2 and .0.
	code, resp, body = getQuery(t, ts, "agg=srvip&"+
		"where=hits:200:")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	for _, r := range resp.Rows {
		if r.Key == "198.51.100.3" || r.Key == "198.51.100.1" {
			t.Fatalf("predicate leaked row %+v", r)
		}
	}
}

func TestQueryEndpointErrors(t *testing.T) {
	ts := newQueryServer(t, tsv.BackendTSV)
	cases := map[string]int{
		"":                            http.StatusBadRequest, // empty agg
		"agg=srvip&level=fortnightly": http.StatusBadRequest,
		"agg=srvip&from=bogus":        http.StatusBadRequest,
		"agg=srvip&to=bogus":          http.StatusBadRequest,
		"agg=srvip&k=-1":              http.StatusBadRequest,
		"agg=srvip&k=bogus":           http.StatusBadRequest,
		"agg=srvip&from=500&to=100":   http.StatusBadRequest, // inverted range
		"agg=srvip&cols=nope":         http.StatusBadRequest, // unknown column
		"agg=srvip&cols=hits,hits":    http.StatusBadRequest, // a column named twice
		"agg=srvip&order=nope":        http.StatusBadRequest,
		"agg=srvip&where=hits":        http.StatusBadRequest, // malformed pred
		"agg=srvip&where=:1:2":        http.StatusBadRequest, // empty pred column
		"agg=srvip&where=hits:x:":     http.StatusBadRequest,
		"agg=srvip&where=hits::x":     http.StatusBadRequest,
		"agg=nope":                    http.StatusNotFound, // no data
		"agg=srvip&level=day":         http.StatusNotFound, // nothing cascaded
		"agg=srvip&from=90000":        http.StatusNotFound, // empty range
	}
	for params, want := range cases {
		code, body := get(t, ts.URL+"/api/query?"+params)
		if code != want {
			t.Errorf("?%s: status %d want %d (%s)", params, code, want, strings.TrimSpace(body))
		}
	}
}

func TestQueryEndpointNoStore(t *testing.T) {
	_, ts := newTestServer(t, false)
	code, body := get(t, ts.URL+"/api/query?agg=srvip")
	if code != http.StatusNotFound {
		t.Fatalf("status %d: %s", code, body)
	}
}

func TestQueryEndpointMetrics(t *testing.T) {
	ts := newQueryServer(t, tsv.BackendColumnar)
	if code, _, body := getQuery(t, ts, "agg=srvip&k=1"); code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatal(code)
	}
	for _, want := range []string{"dnsobs_query_total 1", "dnsobs_query_files_total 3"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestQueryEndpointFileGoneAfterListing is the Retention race: a file
// the store listed is deleted before the query opens it (a Retention
// between the query's listing and its read). The window is no longer
// there; the query answers from the rest instead of failing.
func TestQueryEndpointFileGoneAfterListing(t *testing.T) {
	for _, backend := range []string{tsv.BackendTSV, tsv.BackendColumnar} {
		t.Run(backend, func(t *testing.T) {
			store, err := tsv.NewStoreBackend(t.TempDir(), backend)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { store.Close() })
			for i := int64(0); i < 3; i++ {
				if err := store.Put(snapshotFixture("srvip", i*60)); err != nil {
					t.Fatal(err)
				}
			}
			s := NewServer(store)
			s.Registry = metrics.NewRegistry()
			ts := httptest.NewServer(s.Handler())
			t.Cleanup(ts.Close)

			// Warm the listing, then delete behind the store's back.
			if code, resp, body := getQuery(t, ts, "agg=srvip"); code != http.StatusOK || resp.Files != 3 {
				t.Fatalf("warm-up: status %d: %s", code, body)
			}
			// The store sees a file change only through Put and
			// Retention, and the warm-up left the files open: close them,
			// so that the query opens what the listing names.
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}
			gone := store.FileName(&tsv.Snapshot{Aggregation: "srvip", Level: tsv.Minutely, Start: 60})
			if err := os.Remove(filepath.Join(store.Dir(), gone)); err != nil {
				t.Fatal(err)
			}
			code, resp, body := getQuery(t, ts, "agg=srvip")
			if code != http.StatusOK {
				t.Fatalf("status %d: %s", code, body)
			}
			if resp.Files != 2 || resp.Windows != 2 || resp.CorruptSkipped != 0 {
				t.Fatalf("meta = %+v", resp)
			}
			// Nothing left in the range is 404, as for an empty range.
			if code, _, body := getQuery(t, ts, "agg=srvip&from=60&to=120"); code != http.StatusNotFound {
				t.Fatalf("all gone: status %d: %s", code, body)
			}
		})
	}
}
