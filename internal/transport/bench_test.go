package transport

import (
	"sync"
	"testing"
	"time"

	"dnsobservatory/internal/observatory"
	"dnsobservatory/internal/sie"
	"dnsobservatory/internal/tsv"
)

// BenchmarkTransportIngest compares the full ingest path — summarize +
// serial pipeline — fed directly from in-memory transactions against
// the same path fed through eight sensors over loopback TCP into a
// collector. The delta between the two sub-benchmarks is the transport
// tax per transaction at the paper's multi-sensor fan-in shape.
func BenchmarkTransportIngest(b *testing.B) {
	base := time.Unix(1600000000, 0)
	const pool = 4096
	txs := make([]*sie.Transaction, pool)
	for i := range txs {
		tx := dnsTx(b, i, base)
		tx.QueryTime = base // one window: no snapshot flushes mid-benchmark
		tx.ResponseTime = base.Add(5 * time.Millisecond)
		txs[i] = tx
	}
	newPipe := func() *observatory.Engine {
		return observatory.New(observatory.DefaultConfig(),
			observatory.StandardAggregations(0.01), func(*tsv.Snapshot) {})
	}
	ingest := func(pipe *observatory.Engine, summarizer *sie.Summarizer, sum *sie.Summary, tx *sie.Transaction) {
		if err := summarizer.Summarize(tx, sum); err != nil {
			pipe.RecordRejected()
			return
		}
		pipe.Ingest(sum, 0)
	}

	b.Run("direct", func(b *testing.B) {
		pipe := newPipe()
		var summarizer sie.Summarizer
		var sum sie.Summary
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ingest(pipe, &summarizer, &sum, txs[i%pool])
		}
	})

	b.Run("tcp-8-sensors", func(b *testing.B) {
		const sensors = 8
		coll, addr := startCollector(b, CollectorConfig{QueueLen: 4096})
		pipe := newPipe()
		var summarizer sie.Summarizer
		var sum sie.Summary
		per := b.N / sensors
		rem := b.N % sensors
		b.ReportAllocs()
		b.ResetTimer()
		var wg sync.WaitGroup
		for si := 0; si < sensors; si++ {
			n := per
			if si < rem {
				n++
			}
			wg.Add(1)
			go func(si, n int) {
				defer wg.Done()
				s := NewSensor(SensorConfig{Addr: addr, Name: "bench"})
				for i := 0; i < n; i++ {
					if err := s.Write(txs[(si*per+i)%pool]); err != nil {
						b.Error(err)
						return
					}
				}
				if err := s.Close(); err != nil {
					b.Error(err)
				}
			}(si, n)
		}
		for i := 0; i < b.N; i++ {
			tx, ok := <-coll.C()
			if !ok {
				b.Fatal("collector channel closed early")
			}
			ingest(pipe, &summarizer, &sum, tx)
		}
		wg.Wait()
		b.StopTimer()
		coll.Close()
	})
}
