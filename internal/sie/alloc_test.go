package sie

import (
	"net/netip"
	"testing"
	"time"

	"dnsobservatory/internal/dnswire"
	"dnsobservatory/internal/hll"
	"dnsobservatory/internal/ipwire"
)

// budgetTx is a canned transaction for the allocation budgets: an A
// query with EDNS0, optionally answered by 2 A records in ANSWER and 2
// NS records in AUTHORITY (compressed names throughout).
func budgetTx(t *testing.T, answered bool) *Transaction {
	t.Helper()
	resolver, ns := netip.MustParseAddr("192.0.2.10"), netip.MustParseAddr("198.51.100.53")
	question := []dnswire.Question{{Name: "www.example.com.", Type: dnswire.TypeA, Class: dnswire.ClassINET}}
	q := &dnswire.Message{ID: 9, Questions: question}
	q.SetEDNS(4096, true)
	qw, err := q.Pack(nil)
	if err != nil {
		t.Fatal(err)
	}
	tx := &Transaction{
		QueryPacket: ipwire.AppendIPv4UDP(nil, resolver, ns, 40000, 53, 64, qw),
		QueryTime:   time.Unix(1554076800, 0),
	}
	if !answered {
		return tx
	}
	a := func(addr string) dnswire.RR {
		return dnswire.RR{Name: "www.example.com.", Type: dnswire.TypeA, Class: dnswire.ClassINET,
			TTL: 300, Data: dnswire.ARData{Addr: netip.MustParseAddr(addr)}}
	}
	nsrr := func(target string) dnswire.RR {
		return dnswire.RR{Name: "example.com.", Type: dnswire.TypeNS, Class: dnswire.ClassINET,
			TTL: 86400, Data: dnswire.NSRData{NS: target}}
	}
	r := &dnswire.Message{
		ID:        9,
		Flags:     dnswire.Flags{Response: true, Authoritative: true},
		Questions: question,
		Answers:   []dnswire.RR{a("203.0.113.5"), a("203.0.113.6")},
		Authority: []dnswire.RR{nsrr("ns1.example.com."), nsrr("ns2.example.com.")},
	}
	rw, err := r.Pack(nil)
	if err != nil {
		t.Fatal(err)
	}
	tx.ResponsePacket = ipwire.AppendIPv4UDP(nil, ns, resolver, 53, 40000, 57, rw)
	tx.ResponseTime = tx.QueryTime.Add(23 * time.Millisecond)
	return tx
}

// TestSummarizeAllocBudget pins the summarizer's per-transaction heap
// traffic to the strings a Summary stores: QNAME, one endpoint-text
// pair, one string per NS target — and none per answer address, whose
// text is only ever hashed (PrecomputeHashes, which allocates nothing).
func TestSummarizeAllocBudget(t *testing.T) {
	for _, c := range []struct {
		name     string
		answered bool
		budget   float64
	}{
		{"answered 2xA + 2xNS", true, 4},
		{"unanswered", false, 2},
	} {
		tx := budgetTx(t, c.answered)
		var s Summarizer
		var sum Summary
		if err := s.Summarize(tx, &sum); err != nil { // warm the reused slices
			t.Fatal(err)
		}
		if c.answered && (len(sum.V4Addrs) != 2 || len(sum.V4Strs) != 0 || len(sum.NSNames) != 2 || !sum.DNSSECOK) {
			t.Fatalf("%s: canned transaction summarized wrong: %+v", c.name, sum)
		}
		got := testing.AllocsPerRun(200, func() {
			if err := s.Summarize(tx, &sum); err != nil {
				t.Fatal(err)
			}
			sum.PrecomputeHashes(nil)
		})
		if c.answered && (len(sum.V4Hashes) != 2 || sum.V4Hashes[0] != hll.HashString("203.0.113.5") || sum.V4Hashes[1] != hll.HashString("203.0.113.6")) {
			t.Errorf("%s: the answer addresses hash to %x, not as their texts do", c.name, sum.V4Hashes)
		}
		if got > c.budget {
			t.Errorf("%s: %.1f allocs per Summarize, budget %.0f", c.name, got, c.budget)
		}
		t.Logf("%s: %.1f allocs per Summarize", c.name, got)
	}
}
