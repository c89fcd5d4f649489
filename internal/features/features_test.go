package features

import (
	"fmt"
	"math"
	"net/netip"
	"testing"

	"dnsobservatory/internal/dnswire"
	"dnsobservatory/internal/hll"
	"dnsobservatory/internal/sie"
)

func okSummary(qname string, qtype dnswire.Type) *sie.Summary {
	return &sie.Summary{
		Resolver:      netip.MustParseAddr("192.0.2.10"),
		Nameserver:    netip.MustParseAddr("198.51.100.53"),
		SensorID:      1,
		QName:         qname,
		QType:         qtype,
		QDots:         dnswire.CountLabels(qname),
		Answered:      true,
		DelayMs:       20,
		Hops:          7,
		RespSize:      120,
		RCode:         dnswire.RCodeNoError,
		HasAnswerData: true,
		AnswerCount:   1,
		AnswerTTLs:    []uint32{300},
		V4Addrs:       []netip.Addr{netip.MustParseAddr("203.0.113.1")},
	}
}

func TestObserveCounters(t *testing.T) {
	s := NewSet(Config{})
	s.Observe(okSummary("www.example.com.", dnswire.TypeA))

	nx := okSummary("gone.example.com.", dnswire.TypeA)
	nx.RCode = dnswire.RCodeNXDomain
	nx.HasAnswerData = false
	nx.AnswerCount = 0
	nx.V4Addrs = nil
	nx.AnswerTTLs = nil
	s.Observe(nx)

	un := okSummary("slow.example.com.", dnswire.TypeA)
	un.Answered = false
	s.Observe(un)

	if s.Hits != 3 || s.OK != 1 || s.NXD != 1 || s.Unans != 1 {
		t.Errorf("counters: hits=%d ok=%d nxd=%d unans=%d", s.Hits, s.OK, s.NXD, s.Unans)
	}
	if s.OKAns != 1 {
		t.Errorf("ok_ans = %d", s.OKAns)
	}
	if s.Answered() != 2 {
		t.Errorf("answered = %d", s.Answered())
	}
}

func TestNoDataAndAAAA(t *testing.T) {
	s := NewSet(Config{})
	nd := okSummary("v4only.example.com.", dnswire.TypeAAAA)
	nd.HasAnswerData = false
	nd.AnswerCount = 0
	nd.V4Addrs = nil
	nd.AnswerTTLs = nil
	s.Observe(nd)
	if s.OKNil != 1 || s.OK6 != 1 || s.OK6Nil != 1 {
		t.Errorf("ok_nil=%d ok6=%d ok6nil=%d", s.OKNil, s.OK6, s.OK6Nil)
	}
	ok6 := okSummary("dual.example.com.", dnswire.TypeAAAA)
	ok6.V4Addrs = nil
	ok6.V6Addrs = []netip.Addr{netip.MustParseAddr("2001:db8::1")}
	s.Observe(ok6)
	if s.OK6 != 2 || s.OK6Nil != 1 {
		t.Errorf("after data: ok6=%d ok6nil=%d", s.OK6, s.OK6Nil)
	}
	if s.IP6s.Count() != 1 {
		t.Errorf("ip6s = %d", s.IP6s.Count())
	}
}

func TestDNSSECCounter(t *testing.T) {
	s := NewSet(Config{})
	sec := okSummary("signed.example.com.", dnswire.TypeA)
	sec.DNSSECOK = true
	sec.HasRRSIG = true
	s.Observe(sec)
	if s.OKSec != 1 {
		t.Errorf("ok_sec = %d", s.OKSec)
	}
	// DO without RRSIG does not count.
	noSig := okSummary("unsigned.example.com.", dnswire.TypeA)
	noSig.DNSSECOK = true
	s.Observe(noSig)
	if s.OKSec != 1 {
		t.Errorf("ok_sec after unsigned = %d", s.OKSec)
	}
}

func TestCardinalities(t *testing.T) {
	s := NewSet(Config{})
	for i := 0; i < 200; i++ {
		sum := okSummary(fmt.Sprintf("host%d.example.com.", i), dnswire.TypeA)
		sum.V4Addrs = []netip.Addr{netip.MustParseAddr(fmt.Sprintf("203.0.113.%d", i%250))}
		s.Observe(sum)
	}
	approx := func(got uint64, want, tol float64) bool {
		return float64(got) > want*(1-tol) && float64(got) < want*(1+tol)
	}
	if !approx(s.QNamesA.Count(), 200, 0.15) {
		t.Errorf("qnamesa = %d", s.QNamesA.Count())
	}
	if !approx(s.QNames.Count(), 200, 0.15) {
		t.Errorf("qnames = %d", s.QNames.Count())
	}
	if s.TLDs.Count() != 1 {
		t.Errorf("tlds = %d", s.TLDs.Count())
	}
	if s.ESLDs.Count() != 1 {
		t.Errorf("eslds = %d", s.ESLDs.Count())
	}
	if !approx(s.IP4s.Count(), 200, 0.15) {
		t.Errorf("ip4s = %d", s.IP4s.Count())
	}
	if s.QTypes.Count() != 1 {
		t.Errorf("qtypes = %d", s.QTypes.Count())
	}
}

func TestAverages(t *testing.T) {
	s := NewSet(Config{})
	a := okSummary("a.example.com.", dnswire.TypeA) // 3 labels
	b := okSummary("x.y.a.example.com.", dnswire.TypeA)
	b.AnswerCount = 3
	s.Observe(a)
	s.Observe(b)
	if got := s.QDots(); got != 4 { // (3+5)/2
		t.Errorf("qdots = %f", got)
	}
	if got := s.Lvl(); got != 2 { // (1+3)/2
		t.Errorf("lvl = %f", got)
	}
}

func TestTTLTracking(t *testing.T) {
	s := NewSet(Config{})
	for i := 0; i < 9; i++ {
		sum := okSummary("t.example.com.", dnswire.TypeA)
		sum.AnswerTTLs = []uint32{300}
		s.Observe(sum)
	}
	sum := okSummary("t.example.com.", dnswire.TypeA)
	sum.AnswerTTLs = []uint32{60}
	s.Observe(sum)
	v, share, ok := s.TTL.Mode()
	if !ok || v != 300 || share != 0.9 {
		t.Errorf("ttl mode = %d %f %v", v, share, ok)
	}
}

func TestValuesSchema(t *testing.T) {
	s := NewSet(Config{})
	s.Observe(okSummary("v.example.com.", dnswire.TypeA))
	v := s.Values(1.5)
	if len(v) != len(Columns) {
		t.Fatalf("values len %d, columns %d", len(v), len(Columns))
	}
	get := func(name string) float64 { return v[ColumnIndex[name]] }
	if get("hits") != 1 || get("ok") != 1 {
		t.Errorf("hits=%f ok=%f", get("hits"), get("ok"))
	}
	if get("ttl1") != 300 || get("ttl1_share") != 1 {
		t.Errorf("ttl1=%f share=%f", get("ttl1"), get("ttl1_share"))
	}
	if get("rate") != 1.5 {
		t.Errorf("rate=%f", get("rate"))
	}
	if get("delay_q50") <= 0 {
		t.Errorf("delay_q50=%f", get("delay_q50"))
	}
	if get("qdots") != 3 {
		t.Errorf("qdots=%f", get("qdots"))
	}
}

func TestColumnIndexComplete(t *testing.T) {
	if len(ColumnIndex) != len(Columns) {
		t.Fatal("duplicate column names")
	}
	for _, name := range []string{"hits", "ok6nil", "nsttl1_share", "size_q75", "rate"} {
		if _, ok := ColumnIndex[name]; !ok {
			t.Errorf("missing column %q", name)
		}
	}
}

func TestTransportAndNegTTLFeatures(t *testing.T) {
	s := NewSet(Config{})
	tcp := okSummary("big.example.com.", dnswire.TypeTXT)
	tcp.TCP = true
	s.Observe(tcp)
	trunc := okSummary("big.example.com.", dnswire.TypeTXT)
	trunc.Trunc = true
	trunc.HasAnswerData = false
	trunc.AnswerCount = 0
	trunc.V4Addrs = nil
	trunc.AnswerTTLs = nil
	s.Observe(trunc)
	if s.TCP != 1 || s.Trunc != 1 {
		t.Errorf("tcp=%d trunc=%d", s.TCP, s.Trunc)
	}
	neg := okSummary("v4only.example.com.", dnswire.TypeAAAA)
	neg.HasAnswerData = false
	neg.AnswerCount = 0
	neg.V4Addrs = nil
	neg.AnswerTTLs = nil
	neg.HasSOA = true
	neg.SOAMinimum = 15
	s.Observe(neg)
	v, share, ok := s.NegTTL.Mode()
	if !ok || v != 15 || share != 1 {
		t.Errorf("negttl mode = %d %f %v", v, share, ok)
	}
	vals := s.Values(0)
	if vals[ColumnIndex["tcp"]] != 1 || vals[ColumnIndex["trunc"]] != 1 {
		t.Error("tcp/trunc columns wrong")
	}
	if vals[ColumnIndex["negttl1"]] != 15 {
		t.Errorf("negttl1 = %f", vals[ColumnIndex["negttl1"]])
	}
}

func TestColumnKindsForAggregation(t *testing.T) {
	// TTL-mode columns must be Mode, counters Counter, the rest Gauge —
	// the tsv layer's aggregation semantics depend on this mapping.
	kinds := map[string]Kind{}
	for _, c := range Columns {
		kinds[c.Name] = c.Kind
	}
	for _, name := range []string{"ttl1", "ttl2", "ttl3", "nsttl1", "negttl1"} {
		if kinds[name] != Mode {
			t.Errorf("%s kind = %v, want Mode", name, kinds[name])
		}
	}
	for _, name := range []string{"hits", "nxd", "ok6nil", "tcp", "trunc"} {
		if kinds[name] != Counter {
			t.Errorf("%s kind = %v, want Counter", name, kinds[name])
		}
	}
	for _, name := range []string{"qdots", "delay_q50", "ttl1_share", "rate"} {
		if kinds[name] != Gauge {
			t.Errorf("%s kind = %v, want Gauge", name, kinds[name])
		}
	}
}

func TestReset(t *testing.T) {
	s := NewSet(Config{})
	for i := 0; i < 10; i++ {
		s.Observe(okSummary(fmt.Sprintf("r%d.example.com.", i), dnswire.TypeA))
	}
	s.Reset()
	if s.Hits != 0 || s.OK != 0 || s.QNamesA.Count() != 0 || s.Delays.N() != 0 || s.TTL.Total() != 0 {
		t.Error("reset incomplete")
	}
	// Set must remain usable.
	s.Observe(okSummary("after.example.com.", dnswire.TypeA))
	if s.Hits != 1 || s.QDots() != 3 {
		t.Error("set unusable after reset")
	}
}

// TestPrepareHintsAreCheckedNotTrusted: Prepare leaves on a summary the
// buckets its values count into and the hashes Observe reads, once — a
// ready summary is read-only to it — and a set folds the same stream to
// the same values whoever prepared it: a set of its own configuration,
// one whose histograms have another shape, or nobody (hashes only, the
// hints left at whatever was there).
func TestPrepareHintsAreCheckedNotTrusted(t *testing.T) {
	stream := func() []*sie.Summary {
		var sums []*sie.Summary
		for i := 0; i < 400; i++ {
			sum := okSummary(fmt.Sprintf("h%d.example.com.", i%37), []dnswire.Type{dnswire.TypeA, dnswire.TypeAAAA}[i%2])
			sum.SensorID = uint32(i % 3)
			sum.DelayMs = []float64{0, 0.4, 1, 1.15, 19.99, 300, 59_999, 60_000, 1e6, math.NaN(), -2}[i%11]
			sum.Hops, sum.RespSize = i%70, (i*131)%70_000
			sum.Answered = i%9 != 0
			sums = append(sums, sum)
		}
		return sums
	}
	own, otherShape := NewSet(Config{}), NewSet(Config{DelayMaxMs: 500, SizeMax: 1 << 20})
	var sets [3]*Set
	for i, prepare := range []func(*sie.Summary){
		own.Prepare,
		otherShape.Prepare,
		func(sum *sie.Summary) {
			sum.PrecomputeHashes(nil)
			sum.DelayBucket, sum.HopsBucket, sum.SizeBucket = 7, 1<<16-1, uint16(sum.RespSize)
		},
	} {
		sets[i] = NewSet(Config{})
		for _, sum := range stream() {
			prepare(sum)
			sets[i].Observe(sum)
		}
	}
	want := sets[0].Values(1.5)
	for i, s := range sets[1:] {
		for c, v := range s.Values(1.5) {
			if math.Float64bits(v) != math.Float64bits(want[c]) {
				t.Errorf("preparation %d: column %s = %v, want %v", i+1, Columns[c].Name, v, want[c])
			}
		}
	}

	sum := okSummary("www.example.com.", dnswire.TypeAAAA)
	own.Prepare(sum)
	if !sum.HashesReady || int(sum.DelayBucket) != own.Delays.Bucket(sum.DelayMs) ||
		int(sum.HopsBucket) != own.Hops.Bucket(float64(sum.Hops)) || int(sum.SizeBucket) != own.Sizes.Bucket(float64(sum.RespSize)) ||
		sum.SensorHash != hll.HashUint64(1) || sum.QTypeHash != hll.HashUint64(uint64(dnswire.TypeAAAA)) {
		t.Errorf("Prepare left %+v", sum)
	}
	prepared := *sum
	sum.DelayMs, sum.SensorID = 5000, 9
	own.Prepare(sum)
	if sum.DelayBucket != prepared.DelayBucket || sum.SensorHash != prepared.SensorHash {
		t.Error("Prepare wrote a summary whose hashes were ready")
	}
}
