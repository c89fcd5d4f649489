package tsv

import (
	"fmt"
	"testing"
)

// benchStore fills a store of the given backend with nWindows minutely
// snapshots of nRows objects and wide paper-like schemas (many columns,
// only a few of which any one query touches).
func benchStore(b testing.TB, backend string, nWindows, nRows int) *Store {
	b.Helper()
	st, err := NewStoreBackend(b.TempDir(), backend)
	if err != nil {
		b.Fatal(err)
	}
	cols := make([]string, 40)
	kinds := make([]Kind, 40)
	for i := range cols {
		cols[i] = fmt.Sprintf("f%02d", i)
		kinds[i] = Counter
		if i%3 == 1 {
			kinds[i] = Gauge
		}
	}
	cols[0], cols[1] = "hits", "delay"
	x := xorshift(1234)
	for w := 0; w < nWindows; w++ {
		s := &Snapshot{
			Aggregation: "srvip", Level: Minutely, Start: int64(w) * 60,
			Columns: cols, Kinds: kinds, Windows: 1,
			TotalBefore: 1000, TotalAfter: 900,
		}
		flat := make([]float64, 0, nRows*len(cols))
		for r := 0; r < nRows; r++ {
			start := len(flat)
			for c := range cols {
				if kinds[c] == Gauge {
					flat = append(flat, x.float())
				} else {
					flat = append(flat, float64(x.next()%100000))
				}
			}
			s.Rows = append(s.Rows, Row{
				Key:    fmt.Sprintf("obj-%05d", r),
				Values: flat[start:len(flat):len(flat)],
			})
		}
		if err := st.Put(s); err != nil {
			b.Fatal(err)
		}
	}
	return st
}

// BenchmarkQueryTopK is the headline read-path comparison: a top-10
// query projecting 2 of 40 columns over 10 windows of 5000 rows. The
// TSV backend must parse every cell of every file; the columnar backend
// decodes only the projected column blocks.
func BenchmarkQueryTopK(b *testing.B) {
	for _, backend := range []string{BackendTSV, BackendColumnar} {
		b.Run(backend, func(b *testing.B) {
			st := benchStore(b, backend, 10, 5000)
			q := Query{
				Agg: "srvip", Level: Minutely,
				Columns: []string{"delay"}, OrderBy: "hits", K: 10,
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := RunQuery(st, q)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Rows) != 10 {
					b.Fatal("short result")
				}
			}
		})
	}
}

// BenchmarkQueryPointLookup measures a single-key query over the same
// corpus — the case the columnar bloom index short-circuits on files
// not holding the key (here every file holds it, so this measures
// selective row materialization instead).
func BenchmarkQueryPointLookup(b *testing.B) {
	for _, backend := range []string{BackendTSV, BackendColumnar} {
		b.Run(backend, func(b *testing.B) {
			st := benchStore(b, backend, 10, 5000)
			q := Query{Agg: "srvip", Level: Minutely, Key: "obj-02500", Columns: []string{"hits"}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := RunQuery(st, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQueryPastTableBound is a point miss over a day of minute
// files, more than the file table holds: every query evicts and admits
// as it goes. Set beside a store without the table (a parent tree), it
// shows what a range past the bound costs.
func BenchmarkQueryPastTableBound(b *testing.B) {
	st := benchStore(b, BackendColumnar, 1440, 300)
	q := Query{Agg: "srvip", Level: Minutely, Key: "absent.invalid.", Columns: []string{"hits"}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunQuery(st, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColumnarCascade compares a full minutely->decaminutely fold
// on each backend: the cascade reads every column, so this bounds how
// much the columnar codec costs when projection cannot help.
func BenchmarkColumnarCascade(b *testing.B) {
	for _, backend := range []string{BackendTSV, BackendColumnar} {
		b.Run(backend, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				st := benchStore(b, backend, 10, 2000)
				b.StartTimer()
				if err := st.CascadeAll([]string{"srvip"}, 600); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkListLevel measures the directory-listing path the query
// engine and cascade lean on: cold = every call rescans (the old
// behavior, forced by invalidation), warm = served from the level cache.
func BenchmarkListLevel(b *testing.B) {
	st := benchStore(b, BackendTSV, 200, 2)
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st.invalidateLevel(Minutely)
			if _, err := st.List("srvip", Minutely); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		if _, err := st.List("srvip", Minutely); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := st.List("srvip", Minutely); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEncodeColumnar and BenchmarkDecodeColumnar isolate the codec.
func BenchmarkEncodeColumnar(b *testing.B) {
	snap := randomSnapshot(5, 5000, false)
	var n int64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := EncodeColumnar(snap, discardWriter{})
		if err != nil {
			b.Fatal(err)
		}
		n = m
	}
	b.SetBytes(n)
}

func BenchmarkDecodeColumnar(b *testing.B) {
	data := encodeToBytes(b, randomSnapshot(5, 5000, false))
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeColumnar(data); err != nil {
			b.Fatal(err)
		}
	}
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }
