package observatory

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"

	"dnsobservatory/internal/dnswire"
	"dnsobservatory/internal/sie"
	"dnsobservatory/internal/tsv"
)

func sum(resolver, ns, qname string, qtype dnswire.Type) *sie.Summary {
	return &sie.Summary{
		Resolver:      netip.MustParseAddr(resolver),
		Nameserver:    netip.MustParseAddr(ns),
		QName:         qname,
		QType:         qtype,
		QDots:         dnswire.CountLabels(qname),
		Answered:      true,
		DelayMs:       10,
		Hops:          5,
		RespSize:      100,
		RCode:         dnswire.RCodeNoError,
		HasAnswerData: true,
		AnswerCount:   1,
		AA:            true,
	}
}

func TestPipelineWindowing(t *testing.T) {
	var snaps []*tsv.Snapshot
	cfg := DefaultConfig()
	cfg.SkipFreshObjects = false
	p := New(cfg, []Aggregation{{Name: "srvip", K: 100, Key: SrvIPKey, NoAdmitter: true}},
		func(s *tsv.Snapshot) { snaps = append(snaps, s) })

	// 30 tx in window [0,60), 10 in [60,120).
	for i := 0; i < 30; i++ {
		p.Ingest(sum("192.0.2.1", "198.51.100.1", "a.example.com.", dnswire.TypeA), float64(i))
	}
	for i := 0; i < 10; i++ {
		p.Ingest(sum("192.0.2.1", "198.51.100.1", "a.example.com.", dnswire.TypeA), 60+float64(i))
	}
	p.Flush()

	if len(snaps) != 2 {
		t.Fatalf("snapshots = %d", len(snaps))
	}
	if snaps[0].Start != 0 || snaps[1].Start != 60 {
		t.Errorf("starts: %d %d", snaps[0].Start, snaps[1].Start)
	}
	r0 := snaps[0].Find("198.51.100.1")
	if r0 == nil {
		t.Fatal("object missing from first window")
	}
	if hits, _ := snaps[0].Value(r0, "hits"); hits != 30 {
		t.Errorf("window0 hits = %f", hits)
	}
	r1 := snaps[1].Find("198.51.100.1")
	if hits, _ := snaps[1].Value(r1, "hits"); hits != 10 {
		t.Errorf("window1 hits = %f (stats not reset between windows?)", hits)
	}
	if snaps[0].TotalBefore != 30 || snaps[0].TotalAfter != 30 {
		t.Errorf("stats: %d/%d", snaps[0].TotalBefore, snaps[0].TotalAfter)
	}
}

func TestSkipFreshObjects(t *testing.T) {
	var snaps []*tsv.Snapshot
	cfg := DefaultConfig()
	p := New(cfg, []Aggregation{{Name: "srvip", K: 100, Key: SrvIPKey, NoAdmitter: true}},
		func(s *tsv.Snapshot) { snaps = append(snaps, s) })

	// "old" enters in window 0; "fresh" enters mid-window 1.
	p.Ingest(sum("192.0.2.1", "198.51.100.1", "a.example.com.", dnswire.TypeA), 5)
	p.Ingest(sum("192.0.2.1", "198.51.100.1", "a.example.com.", dnswire.TypeA), 65)
	p.Ingest(sum("192.0.2.1", "198.51.100.2", "b.example.com.", dnswire.TypeA), 70)
	p.Flush() // dumps window 1

	last := snaps[len(snaps)-1]
	if last.Find("198.51.100.1") == nil {
		t.Error("surviving object skipped")
	}
	if last.Find("198.51.100.2") != nil {
		t.Error("fresh object not skipped")
	}
}

func TestMultipleAggregations(t *testing.T) {
	byName := map[string][]*tsv.Snapshot{}
	cfg := DefaultConfig()
	cfg.SkipFreshObjects = false
	p := New(cfg, StandardAggregations(0.001), func(s *tsv.Snapshot) {
		byName[s.Aggregation] = append(byName[s.Aggregation], s)
	})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		qn := fmt.Sprintf("www%d.site%d.example%d.com.", rng.Intn(3), rng.Intn(5), rng.Intn(10))
		s := sum(
			fmt.Sprintf("192.0.2.%d", rng.Intn(5)+1),
			fmt.Sprintf("198.51.100.%d", rng.Intn(20)+1),
			qn, dnswire.TypeA)
		p.Ingest(s, float64(i)*0.01)
	}
	p.Flush()
	for _, name := range []string{"srvip", "etld", "esld", "qname", "qtype", "rcode", "aafqdn", "srcsrv"} {
		if len(byName[name]) == 0 {
			t.Errorf("no snapshots for %s", name)
			continue
		}
		snap := byName[name][0]
		if len(snap.Rows) == 0 {
			t.Errorf("%s: empty snapshot", name)
		}
	}
	// etld snapshot should contain exactly "com.".
	etld := byName["etld"][0]
	if len(etld.Rows) != 1 || etld.Rows[0].Key != "com." {
		t.Errorf("etld rows: %+v", etld.Rows)
	}
	// qtype snapshot keys on mnemonic.
	if byName["qtype"][0].Rows[0].Key != "A" {
		t.Errorf("qtype key: %q", byName["qtype"][0].Rows[0].Key)
	}
}

func TestSnapshotSortedByHits(t *testing.T) {
	var snaps []*tsv.Snapshot
	cfg := DefaultConfig()
	cfg.SkipFreshObjects = false
	p := New(cfg, []Aggregation{{Name: "qname", K: 100, Key: QNameKey, NoAdmitter: true}},
		func(s *tsv.Snapshot) { snaps = append(snaps, s) })
	for i := 0; i < 10; i++ {
		for j := 0; j <= i; j++ {
			p.Ingest(sum("192.0.2.1", "198.51.100.1", fmt.Sprintf("q%d.example.com.", i), dnswire.TypeA), float64(j))
		}
	}
	p.Flush()
	rows := snaps[0].Rows
	for i := 1; i < len(rows); i++ {
		if rows[i-1].Values[0] < rows[i].Values[0] {
			t.Fatal("rows not sorted by hits")
		}
	}
	if rows[0].Key != "q9.example.com." {
		t.Errorf("top row = %q", rows[0].Key)
	}
}

func TestAAFQDNFilter(t *testing.T) {
	s := sum("192.0.2.1", "198.51.100.1", "x.example.com.", dnswire.TypeA)
	if _, ok := AAFQDNKey(s); !ok {
		t.Error("AA answer rejected")
	}
	s.AA = false
	if _, ok := AAFQDNKey(s); ok {
		t.Error("non-AA accepted")
	}
	s.AA = true
	s.HasAnswerData = false
	if _, ok := AAFQDNKey(s); ok {
		t.Error("empty answer accepted")
	}
	s.AuthorityNS = 2
	if _, ok := AAFQDNKey(s); !ok {
		t.Error("delegation rejected")
	}
	s.RCode = dnswire.RCodeNXDomain
	if _, ok := AAFQDNKey(s); ok {
		t.Error("NXDOMAIN accepted")
	}
}

func TestRCodeKey(t *testing.T) {
	s := sum("192.0.2.1", "198.51.100.1", "x.example.com.", dnswire.TypeA)
	if k, _ := RCodeKey(s); k != "NOERROR" {
		t.Errorf("key = %q", k)
	}
	s.Answered = false
	if k, _ := RCodeKey(s); k != "UNANSWERED" {
		t.Errorf("key = %q", k)
	}
}

// TestSuffixKeysUseMemo: the etld and esld keys are the public-suffix
// list's answer whether they come from the walk PrecomputeHashes
// memoized or, for a summary nobody prepared or a QNAME the memo cannot
// express (not canonical), from the list itself.
func TestSuffixKeysUseMemo(t *testing.T) {
	etldKey, esldKey := ETLDKeyFunc(nil), ESLDKeyFunc(nil)
	for _, c := range []struct {
		qname      string
		etld, esld string
		memoized   bool
	}{
		{"www.bbc.co.uk.", "co.uk.", "bbc.co.uk.", true},
		{"a.b.example.com.", "com.", "example.com.", true},
		{"co.uk.", "co.uk.", "co.uk.", true},  // a bare public suffix
		{"x.y.ck.", "y.ck.", "x.y.ck.", true}, // wildcard rule
		{"www.ck.", "ck.", "www.ck.", true},   // exception rule
		{"host.unlisted.", "unlisted.", "host.unlisted.", true},
		{".", ".", ".", true},
		{"WWW.BBC.CO.UK.", "co.uk.", "bbc.co.uk.", false},
		{"www.bbc.co.uk", "co.uk.", "bbc.co.uk.", false},
		{"", ".", ".", false},
	} {
		s := sum("192.0.2.1", "198.51.100.1", c.qname, dnswire.TypeA)
		for _, prepared := range []bool{false, true} {
			if prepared {
				s.PrecomputeHashes(nil)
				if (s.ETLDOff != 0) != c.memoized || (s.ESLDOff != 0) != c.memoized {
					t.Errorf("%q: memo offsets %d/%d, want memoized=%v", c.qname, s.ETLDOff, s.ESLDOff, c.memoized)
				}
			}
			etld, ok1 := etldKey(s)
			esld, ok2 := esldKey(s)
			if etld != c.etld || esld != c.esld || !ok1 || !ok2 {
				t.Errorf("%q (prepared=%v): keys %q / %q, want %q / %q", c.qname, prepared, etld, esld, c.etld, c.esld)
			}
		}
	}
}

func TestSrcSrvKey(t *testing.T) {
	s := sum("192.0.2.1", "198.51.100.1", "x.example.com.", dnswire.TypeA)
	if k, _ := SrcSrvKey(s); k != "192.0.2.1>198.51.100.1" {
		t.Errorf("key = %q", k)
	}
}

func TestEmptyWindowsProduceEmptySnapshots(t *testing.T) {
	var snaps []*tsv.Snapshot
	cfg := DefaultConfig()
	cfg.SkipFreshObjects = false
	p := New(cfg, []Aggregation{{Name: "srvip", K: 10, Key: SrvIPKey, NoAdmitter: true}},
		func(s *tsv.Snapshot) { snaps = append(snaps, s) })
	p.Ingest(sum("192.0.2.1", "198.51.100.1", "a.example.com.", dnswire.TypeA), 0)
	// Jump 3 windows ahead.
	p.Ingest(sum("192.0.2.1", "198.51.100.1", "a.example.com.", dnswire.TypeA), 185)
	p.Flush()
	if len(snaps) != 4 {
		t.Fatalf("snapshots = %d, want 4", len(snaps))
	}
	// Middle windows carry no rows (stats were reset).
	if len(snaps[1].Rows) != 0 || len(snaps[2].Rows) != 0 {
		t.Errorf("idle windows have rows: %d %d", len(snaps[1].Rows), len(snaps[2].Rows))
	}
}

func TestCacheAccessor(t *testing.T) {
	p := New(DefaultConfig(), []Aggregation{{Name: "srvip", K: 10, Key: SrvIPKey}}, nil)
	if p.Cache("srvip") == nil {
		t.Error("cache missing")
	}
	if p.Cache("nope") != nil {
		t.Error("phantom cache")
	}
}

func TestStandardAggregationsScaling(t *testing.T) {
	aggs := StandardAggregations(1)
	if aggs[0].K != 100_000 {
		t.Errorf("srvip K = %d", aggs[0].K)
	}
	small := StandardAggregations(0.0001)
	for _, a := range small {
		if a.K < 10 {
			t.Errorf("%s K = %d below floor", a.Name, a.K)
		}
	}
}
