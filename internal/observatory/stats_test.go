package observatory

import (
	"strings"
	"testing"

	"dnsobservatory/internal/dnswire"
	"dnsobservatory/internal/sie"
	"dnsobservatory/internal/tsv"
)

func statsAggs() []Aggregation {
	return []Aggregation{
		{Name: "srvip", K: 100, Key: SrvIPKey, NoAdmitter: true},
		{Name: "qname", K: 100, Key: QNameKey, NoAdmitter: true},
	}
}

func TestPipelineStats(t *testing.T) {
	p := New(DefaultConfig(), statsAggs(), nil)
	for i := 0; i < 10; i++ {
		p.Ingest(sum("192.0.2.1", "198.51.100.1", "a.example.com.", dnswire.TypeA), float64(i))
	}
	for i := 0; i < 3; i++ {
		p.RecordRejected()
	}
	p.Close()
	es := p.Stats()
	want := EngineStats{Ingested: 13, Accepted: 10, Rejected: 3}
	if es != want {
		t.Errorf("Stats() = %+v, want %+v", es, want)
	}
}

func TestShardedQuarantineKeepsWindowAlive(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SkipFreshObjects = false
	cfg.ChaosHook = func(s *sie.Summary) {
		if strings.HasPrefix(s.QName, "poison.") {
			panic("injected")
		}
	}
	var snaps []*tsv.Snapshot
	eng := NewSharded(ShardedConfig{Config: cfg, Shards: 2, Workers: 2, BatchSize: 8},
		statsAggs(), func(s *tsv.Snapshot) { snaps = append(snaps, s) })
	// Two windows; poison some summaries in each.
	for i := 0; i < 200; i++ {
		qname := "a.example.com."
		if i%25 == 0 {
			qname = "poison.example.com."
		}
		eng.Ingest(sum("192.0.2.1", "198.51.100.1", qname, dnswire.TypeA), float64(i)*0.6)
	}
	eng.Close()

	es := eng.Stats()
	if es.Ingested != es.Accepted+es.Rejected {
		t.Errorf("accounting broken: %+v", es)
	}
	if es.Ingested != 200 || es.Accepted != 200 {
		t.Errorf("Stats() = %+v, want 200 ingested and accepted", es)
	}
	if es.Panics == 0 || es.Panics != es.Quarantined {
		t.Errorf("panics/quarantined = %d/%d, want equal and nonzero", es.Panics, es.Quarantined)
	}
	// Both windows ([0,60) and [60,120)) must emit for both aggregations.
	got := map[string]bool{}
	for _, s := range snaps {
		got[snapKey(s)] = true
	}
	for _, want := range []string{"srvip@0", "srvip@60", "qname@0", "qname@60"} {
		if !got[want] {
			t.Errorf("missing snapshot %s (windows: %v)", want, got)
		}
	}
}
