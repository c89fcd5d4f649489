package observatory

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"dnsobservatory/internal/chaos"
	"dnsobservatory/internal/dnswire"
	"dnsobservatory/internal/ipwire"
	"dnsobservatory/internal/metrics"
	"dnsobservatory/internal/sie"
	"dnsobservatory/internal/tsv"
)

// requireRegistryMatchesStats asserts that what the engine published to
// its metrics registry is exactly what Stats() reports — the contract
// that /metrics never drifts from EngineStats.
func requireRegistryMatchesStats(t *testing.T, reg *metrics.Registry, es EngineStats) {
	t.Helper()
	for _, c := range []struct {
		family string
		want   uint64
	}{
		{MetricIngested, es.Ingested},
		{MetricAccepted, es.Accepted},
		{MetricRejected, es.Rejected},
		{MetricPanics, es.Panics},
		{MetricQuarantined, es.Quarantined},
	} {
		if got := reg.SumCounter(c.family); got != c.want {
			t.Errorf("registry %s = %d, EngineStats says %d", c.family, got, c.want)
		}
	}
}

// soakTx builds one well-formed answered transaction with a varied
// query name, timestamped i*50ms after base.
func soakTx(t *testing.T, i int, base time.Time) *sie.Transaction {
	t.Helper()
	var q dnswire.Message
	q.ID = uint16(i)
	q.Flags.RecursionDesired = true
	qname := fmt.Sprintf("h%d.example%d.com.", i%7, i%90)
	q.Questions = append(q.Questions, dnswire.Question{
		Name: qname, Type: dnswire.TypeA, Class: dnswire.ClassINET})
	qw, err := q.Pack(nil)
	if err != nil {
		t.Fatal(err)
	}
	r := q
	r.Flags.Response = true
	r.Flags.Authoritative = true
	r.Answers = append(r.Answers, dnswire.RR{
		Name: qname, Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 300,
		Data: dnswire.ARData{Addr: netip.MustParseAddr("192.0.2.1")},
	})
	rw, err := r.Pack(nil)
	if err != nil {
		t.Fatal(err)
	}
	src := netip.AddrFrom4([4]byte{198, 51, 100, byte(i%50 + 1)})
	dst := netip.AddrFrom4([4]byte{192, 0, 2, byte(i%20 + 1)})
	at := base.Add(time.Duration(i) * 50 * time.Millisecond)
	return &sie.Transaction{
		QueryPacket:    ipwire.AppendIPv4UDP(nil, src, dst, 4242, ipwire.DNSPort, 64, qw),
		ResponsePacket: ipwire.AppendIPv4UDP(nil, dst, src, ipwire.DNSPort, 4242, 64, rw),
		QueryTime:      at,
		ResponseTime:   at.Add(5 * time.Millisecond),
		SensorID:       1,
	}
}

// soakFeed replays n chaos-mangled transactions through the full ingest
// path (summarize → reject or ingest), mirroring dnsobs: zero and
// pre-base timestamps are rejected, everything else is clamped by the
// engine. Returns the highest stream time fed.
func soakFeed(t *testing.T, eng *Engine, inj *chaos.Injector, n int) float64 {
	t.Helper()
	base := time.Unix(1600000000, 0)
	var summarizer sie.Summarizer
	summarizer.KeepUnparsableResponses = true
	var maxNow float64
	emit := inj.Transactions(func(tx *sie.Transaction) {
		if tx.QueryTime.IsZero() || tx.QueryTime.Before(base) {
			eng.RecordRejected()
			return
		}
		buf := eng.Borrow()
		if err := summarizer.Summarize(tx, &buf.Summary); err != nil {
			eng.Discard(buf)
			eng.RecordRejected()
			return
		}
		now := tx.QueryTime.Sub(base).Seconds()
		if now > maxNow {
			maxNow = now
		}
		eng.IngestShared(buf, now)
	})
	for i := 0; i < n; i++ {
		emit(soakTx(t, i, base))
	}
	inj.Flush()
	return maxNow
}

// requireFullWindowCoverage asserts that every aggregation produced
// exactly one snapshot for every window from 0 through the last window
// any aggregation emitted — chaos may shrink window contents but must
// never silently drop a window.
func requireFullWindowCoverage(t *testing.T, snaps map[string]map[int64]int) {
	t.Helper()
	var last int64 = -1
	for _, starts := range snaps {
		for s := range starts {
			if s > last {
				last = s
			}
		}
	}
	if last < 60 {
		t.Fatalf("soak produced too few windows (last start %d)", last)
	}
	for agg, starts := range snaps {
		for s := int64(0); s <= last; s += 60 {
			switch n := starts[s]; n {
			case 1:
			case 0:
				t.Errorf("%s: window %d silently dropped", agg, s)
			default:
				t.Errorf("%s: window %d emitted %d times", agg, s, n)
			}
		}
	}
}

// TestChaosSoakBlockPolicy soaks the worker shape, whose full queues
// block dispatch, against every stream fault class plus injected worker
// panics, and asserts the ingest accounting invariant and that no window
// is ever silently dropped. Run under -race.
func TestChaosSoakBlockPolicy(t *testing.T) {
	cfg := chaos.Uniform(0.02, 42)
	cfg.PanicRate = 0.002
	inj := chaos.New(cfg)

	econf := DefaultConfig()
	econf.SkipFreshObjects = false
	econf.ChaosHook = inj.PanicHook
	reg := metrics.NewRegistry()
	econf.Metrics = reg
	inj.Instrument(reg)

	snaps := map[string]map[int64]int{}
	eng := NewSharded(ShardedConfig{Config: econf, Shards: 4, Workers: 2, BatchSize: 32},
		shardedTestAggs(),
		func(s *tsv.Snapshot) {
			if snaps[s.Aggregation] == nil {
				snaps[s.Aggregation] = map[int64]int{}
			}
			snaps[s.Aggregation][s.Start]++
		})

	soakFeed(t, eng, inj, 12000) // 600 simulated seconds
	eng.Close()

	es := eng.Stats()
	if es.Ingested != es.Accepted+es.Rejected {
		t.Errorf("accounting broken: ingested %d != accepted %d + rejected %d",
			es.Ingested, es.Accepted, es.Rejected)
	}
	if es.Rejected == 0 {
		t.Error("chaos stream produced no rejections (faults not reaching the summarizer?)")
	}
	if es.Panics == 0 {
		t.Error("no injected panics recovered (PanicHook not wired?)")
	}
	if es.Panics != es.Quarantined {
		t.Errorf("panics %d != quarantined %d", es.Panics, es.Quarantined)
	}
	cs := inj.Stats()
	if cs.Total() == 0 {
		t.Fatal("injector fired no faults")
	}
	requireRegistryMatchesStats(t, reg, es)
	if got := reg.SumCounter("dnsobs_chaos_injected_total"); got != cs.Total() {
		t.Errorf("registry chaos injections = %d, injector says %d", got, cs.Total())
	}
	if reg.Sum(MetricTopkOccupancy) == 0 {
		t.Error("per-aggregation occupancy gauges never published")
	}
	requireFullWindowCoverage(t, snaps)
}
