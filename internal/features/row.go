package features

import "dnsobservatory/internal/sketch"

// Kind classifies a column for time aggregation (paper §2.4): counters
// aggregate as mean rates with missing objects counting as zero; gauges
// (averages, cardinality estimates, quantiles) aggregate as means over
// the windows where the object was present; mode columns (the dominant
// TTL values) aggregate as the window-weighted majority — averaging TTL
// values would invent TTLs nobody ever served.
type Kind int

// Column kinds; values match tsv.Kind.
const (
	Counter Kind = iota
	Gauge
	Mode
)

// Column describes one field of a feature snapshot row.
type Column struct {
	Name string
	Kind Kind
}

// Columns is the fixed schema of feature snapshots, mirroring §2.3.
var Columns = []Column{
	{"hits", Counter},
	{"unans", Counter},
	{"ok", Counter},
	{"nxd", Counter},
	{"rfs", Counter},
	{"fail", Counter},
	{"ok_ans", Counter},
	{"ok_ns", Counter},
	{"ok_add", Counter},
	{"ok_nil", Counter},
	{"ok6", Counter},
	{"ok6nil", Counter},
	{"ok_sec", Counter},
	{"tcp", Counter},
	{"trunc", Counter},
	{"qdots", Gauge},
	{"lvl", Gauge},
	{"nslvl", Gauge},
	{"srvips", Gauge},
	{"srcips", Gauge},
	{"sources", Gauge},
	{"qnamesa", Gauge},
	{"qnames", Gauge},
	{"tlds", Gauge},
	{"eslds", Gauge},
	{"qtypes", Gauge},
	{"ip4s", Gauge},
	{"ip6s", Gauge},
	{"ttl1", Mode},
	{"ttl1_share", Gauge},
	{"ttl2", Mode},
	{"ttl2_share", Gauge},
	{"ttl3", Mode},
	{"ttl3_share", Gauge},
	{"nsttl1", Mode},
	{"nsttl1_share", Gauge},
	{"negttl1", Mode},
	{"negttl1_share", Gauge},
	{"delay_q25", Gauge},
	{"delay_q50", Gauge},
	{"delay_q75", Gauge},
	{"hops_q25", Gauge},
	{"hops_q50", Gauge},
	{"hops_q75", Gauge},
	{"size_q25", Gauge},
	{"size_q50", Gauge},
	{"size_q75", Gauge},
	{"rate", Gauge},
}

// ColumnIndex maps a column name to its position in Columns.
var ColumnIndex = func() map[string]int {
	m := make(map[string]int, len(Columns))
	for i, c := range Columns {
		m[c.Name] = i
	}
	return m
}()

// Values extracts the snapshot row in Columns order. rate is the
// Space-Saving decayed rate estimate attached by the pipeline.
func (s *Set) Values(rate float64) []float64 {
	return s.AppendValues(make([]float64, 0, len(Columns)), rate)
}

// AppendValues appends the row Values returns to dst; with len(Columns)
// spare capacity in dst it does not allocate, so a window dump can lay
// all its rows out in one arena.
func (s *Set) AppendValues(dst []float64, rate float64) []float64 {
	dst = append(dst,
		float64(s.Hits), float64(s.Unans),
		float64(s.OK), float64(s.NXD), float64(s.RFS), float64(s.Fail),
		float64(s.OKAns), float64(s.OKNS), float64(s.OKAdd), float64(s.OKNil),
		float64(s.OK6), float64(s.OK6Nil), float64(s.OKSec),
		float64(s.TCP), float64(s.Trunc),
		s.QDots(), s.Lvl(), s.NSLvl(),
		float64(s.SrvIPs.Count()), float64(s.SrcIPs.Count()), float64(s.Sources.Count()),
		float64(s.QNamesA.Count()), float64(s.QNames.Count()),
		float64(s.TLDs.Count()), float64(s.ESLDs.Count()), float64(s.QTypes.Count()),
		float64(s.IP4s.Count()), float64(s.IP6s.Count()),
	)
	// The dominant TTLs as (value, share) pairs, zero-padded: three for
	// ANSWER records, one each for AUTHORITY NS and negative caching.
	for _, m := range [...]struct {
		top *sketch.TopValues
		n   int
	}{{s.TTL, 3}, {s.NSTTL, 1}, {s.NegTTL, 1}} {
		var buf [3]sketch.ValueCount
		top := m.top.TopInto(buf[:m.n])
		for i := 0; i < m.n; i++ {
			if i < len(top) {
				dst = append(dst, float64(top[i].Value), top[i].Share)
			} else {
				dst = append(dst, 0, 0)
			}
		}
	}
	dq25, dq50, dq75 := s.Delays.Quartiles()
	hq25, hq50, hq75 := s.Hops.Quartiles()
	sq25, sq50, sq75 := s.Sizes.Quartiles()
	return append(dst, dq25, dq50, dq75, hq25, hq50, hq75, sq25, sq50, sq75, rate)
}
