package analysis

import (
	"math"
	"sort"

	"dnsobservatory/internal/tsv"
)

// TTLSeriesPoint is one minute of the Fig. 7 time series: a domain's
// query rate and served TTL.
type TTLSeriesPoint struct {
	Start   int64
	Hits    float64
	TopTTL  float64
	OKRate  float64 // NoError responses per minute (the "response rate")
	NXDRate float64
}

// TTLSeries extracts the per-window series for one object key (an eSLD
// for Fig. 7) from a list of snapshots.
func TTLSeries(snaps []*tsv.Snapshot, key string) []TTLSeriesPoint {
	var out []TTLSeriesPoint
	for _, s := range snaps {
		p := TTLSeriesPoint{Start: s.Start}
		if r := s.Find(key); r != nil {
			p.Hits, _ = s.Value(r, "hits")
			p.TopTTL, _ = s.Value(r, "ttl1")
			p.OKRate, _ = s.Value(r, "ok")
			p.NXDRate, _ = s.Value(r, "nxd")
		}
		out = append(out, p)
	}
	return out
}

// TTLTrafficChange is one point of Fig. 8: a domain's TTL change and
// query-rate change between two periods.
type TTLTrafficChange struct {
	Key         string
	TTLBefore   float64
	TTLAfter    float64
	HitsBefore  float64 // queries per minute
	HitsAfter   float64
	OKBefore    float64 // responses with NoError per minute
	OKAfter     float64
	QueryChange float64 // hitsAfter/hitsBefore - 1
	TTLChange   float64 // ttlAfter/ttlBefore - 1
	NXDDriven   bool    // query rate rose but NoError response rate did not
}

// TTLTrafficChanges compares two period aggregates (e.g. the paper's
// March vs April eSLD data) and returns the topN objects by absolute
// query-rate change that also changed their TTL (§4.1, Fig. 8).
func TTLTrafficChanges(before, after *tsv.Snapshot, topN int) []TTLTrafficChange {
	inAfter := make(map[string]*tsv.Row, len(after.Rows))
	for i := len(after.Rows) - 1; i >= 0; i-- { // backwards: the first occurrence wins, as Find's
		inAfter[after.Rows[i].Key] = &after.Rows[i]
	}
	var out []TTLTrafficChange
	for i := range before.Rows {
		rb := &before.Rows[i]
		ra := inAfter[rb.Key]
		if ra == nil {
			continue
		}
		get := func(s *tsv.Snapshot, r *tsv.Row, c string) float64 {
			v, _ := s.Value(r, c)
			return v
		}
		c := TTLTrafficChange{
			Key:        rb.Key,
			TTLBefore:  get(before, rb, "ttl1"),
			TTLAfter:   get(after, ra, "ttl1"),
			HitsBefore: get(before, rb, "hits"),
			HitsAfter:  get(after, ra, "hits"),
			OKBefore:   get(before, rb, "ok"),
			OKAfter:    get(after, ra, "ok"),
		}
		if c.TTLBefore == 0 || c.HitsBefore == 0 || c.TTLBefore == c.TTLAfter {
			continue
		}
		c.QueryChange = c.HitsAfter/c.HitsBefore - 1
		c.TTLChange = c.TTLAfter/c.TTLBefore - 1
		// "28 of the 34 cases only increase their query rate, but not
		// their response rate": NoError responses stay flat while
		// queries rise — NXDOMAIN or otherwise unusual traffic.
		c.NXDDriven = c.QueryChange > 0.2 && c.OKAfter < c.OKBefore*1.1
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		return math.Abs(out[i].QueryChange) > math.Abs(out[j].QueryChange)
	})
	if topN > 0 && topN < len(out) {
		out = out[:topN]
	}
	return out
}

// Fig8Quadrants summarizes the Fig. 8 narrative: among TTL-decreasing
// domains, how many gained queries; among TTL-increasing domains, how
// many gained vs lost, and how many of the gainers are NXDOMAIN-driven.
type Fig8Quadrants struct {
	DownUp   int // TTL down, queries up (the expected inverse relation)
	DownDown int
	UpUp     int // TTL up, queries up anyway (paper: 34)
	UpDown   int // TTL up, queries down (paper: 17)
	UpUpNXD  int // of UpUp, NXD-driven (paper: 28)
}

// Quadrants classifies the change list.
func Quadrants(changes []TTLTrafficChange) Fig8Quadrants {
	var q Fig8Quadrants
	for _, c := range changes {
		switch {
		case c.TTLChange < 0 && c.QueryChange > 0:
			q.DownUp++
		case c.TTLChange < 0:
			q.DownDown++
		case c.QueryChange > 0:
			q.UpUp++
			if c.NXDDriven {
				q.UpUpNXD++
			}
		default:
			q.UpDown++
		}
	}
	return q
}
