package sie_test

import (
	"bytes"
	"testing"

	"dnsobservatory/internal/sie"
	"dnsobservatory/internal/simnet"
)

// BenchmarkSummarize is the summarizer's cost per transaction as an
// engine pays it: Summarize, then PrecomputeHashes, by one long-lived
// Summarizer into one recycled Summary, over a simnet pool replayed in
// order (30 s of the default scenario: 65 k transactions).
func BenchmarkSummarize(b *testing.B) {
	cfg := simnet.DefaultConfig()
	cfg.Duration = 30
	var pool []sie.Transaction
	simnet.New(cfg).Run(func(tx *sie.Transaction) {
		c := *tx // the generator reuses its packet buffers
		c.QueryPacket, c.ResponsePacket = bytes.Clone(tx.QueryPacket), bytes.Clone(tx.ResponsePacket)
		pool = append(pool, c)
	})
	var s sie.Summarizer
	var sum sie.Summary
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Summarize(&pool[i%len(pool)], &sum); err == nil {
			sum.PrecomputeHashes(nil)
		}
	}
}
