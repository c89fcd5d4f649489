package simnet

import (
	"runtime"
	"testing"

	"dnsobservatory/internal/encwire"
	"dnsobservatory/internal/sie"
)

func benchConfig() Config {
	cfg := DefaultConfig()
	cfg.Duration = 10
	cfg.QPS = 500
	cfg.Resolvers = 40
	cfg.Sensors = 8
	cfg.SLDs = 400
	cfg.Mix.Exfil = 0.002
	return cfg
}

// BenchmarkEncIngest measures event generation for the plaintext path
// and for each encrypted mode (framing, padding, connection tracking
// and observation emit included). The contract (docs/BENCH_HISTORY.md,
// PR 10) is that every encrypted mode stays within 15% of plain.
func BenchmarkEncIngest(b *testing.B) {
	cases := []struct {
		name string
		mode encwire.Mode
	}{
		{"plain", encwire.ModePlain},
		{"dot", encwire.ModeDoT},
		{"doh", encwire.ModeDoH},
		{"doq", encwire.ModeDoQ},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var txs, msgs uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg := benchConfig()
				cfg.EncMode = c.mode
				if c.mode != encwire.ModePlain {
					cfg.EncPolicy = encwire.PadEDNS0
					cfg.EncEmit = func(*encwire.Observation) { msgs++ }
				}
				sim := New(cfg)
				// Collect the construction garbage now so GC assist work
				// from New (key generation, zone building) is not charged
				// to the timed Run section.
				runtime.GC()
				b.StartTimer()
				st := sim.Run(func(*sie.Transaction) {})
				txs += st.Transactions
			}
			b.ReportMetric(float64(txs)/float64(b.N), "tx/run")
			if c.mode != encwire.ModePlain {
				b.ReportMetric(float64(msgs)/float64(b.N), "obs/run")
			}
		})
	}
}
