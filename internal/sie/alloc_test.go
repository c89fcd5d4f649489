package sie

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"dnsobservatory/internal/dnswire"
	"dnsobservatory/internal/hll"
	"dnsobservatory/internal/ipwire"
)

// budgetTx is a canned transaction for the allocation budgets: an A
// query for qname with EDNS0, optionally answered by 2 A records in
// ANSWER and 2 NS records in AUTHORITY (compressed names throughout).
func budgetTx(tb testing.TB, qname string, answered bool) *Transaction {
	tb.Helper()
	resolver, ns := netip.MustParseAddr("192.0.2.10"), netip.MustParseAddr("198.51.100.53")
	question := []dnswire.Question{{Name: qname, Type: dnswire.TypeA, Class: dnswire.ClassINET}}
	q := &dnswire.Message{ID: 9, Questions: question}
	q.SetEDNS(4096, true)
	qw, err := q.Pack(nil)
	if err != nil {
		tb.Fatal(err)
	}
	tx := &Transaction{
		QueryPacket: ipwire.AppendIPv4UDP(nil, resolver, ns, 40000, 53, 64, qw),
		QueryTime:   time.Unix(1554076800, 0),
	}
	if !answered {
		return tx
	}
	a := func(addr string) dnswire.RR {
		return dnswire.RR{Name: qname, Type: dnswire.TypeA, Class: dnswire.ClassINET,
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
		tb.Fatal(err)
	}
	tx.ResponsePacket = ipwire.AppendIPv4UDP(nil, ns, resolver, 53, 40000, 57, rw)
	tx.ResponseTime = tx.QueryTime.Add(23 * time.Millisecond)
	return tx
}

// TestSummarizeAllocBudget pins the summarizer's per-transaction heap
// traffic to the texts it has not seen lately. A warm Summarizer makes
// no string for a transaction it has summarized before — QNAME, endpoint
// texts and NS targets all come from its table — and none per answer
// address, whose text is only ever hashed (PrecomputeHashes, which
// allocates nothing). With a QNAME it has never seen it makes that one
// string, and the endpoints and NS targets still come from the table.
func TestSummarizeAllocBudget(t *testing.T) {
	for _, c := range []struct {
		name     string
		answered bool
		distinct bool // a new QNAME every transaction
		budget   float64
	}{
		{"answered 2xA + 2xNS", true, false, 0},
		{"unanswered", false, false, 0},
		{"all-distinct QNAMEs", true, true, 1},
	} {
		const runs = 200
		warm := budgetTx(t, "www.example.com.", c.answered)
		txs := []*Transaction{warm}
		if c.distinct {
			txs = txs[:0]
			for i := 0; i <= runs; i++ { // AllocsPerRun's warm-up call too
				txs = append(txs, budgetTx(t, fmt.Sprintf("host%d.example.com.", i), c.answered))
			}
		}
		var s Summarizer
		var sum Summary
		if err := s.Summarize(warm, &sum); err != nil { // fill the table and the reused slices
			t.Fatal(err)
		}
		if c.answered && (len(sum.V4Addrs) != 2 || len(sum.V4Strs) != 0 || len(sum.NSNames) != 2 || !sum.DNSSECOK) {
			t.Fatalf("%s: canned transaction summarized wrong: %+v", c.name, sum)
		}
		n := 0
		got := testing.AllocsPerRun(runs, func() {
			if err := s.Summarize(txs[n%len(txs)], &sum); err != nil {
				t.Fatal(err)
			}
			n++
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
