package metrics

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

var runtimeSink []byte

// TestRuntimeFamilies: the allocation counter never decreases, and it
// rises by at least N over N forced allocations — large ones, which the
// runtime counts as they happen rather than a cached span at a time —
// the byte counter by at least their size, a forced collection adds a
// GC cycle, and all four families reach the exposition.
func TestRuntimeFamilies(t *testing.T) {
	r := NewRegistry()
	InstrumentRuntime(r)
	objects := func() uint64 { return r.SumCounter("dnsobs_go_heap_allocs_objects_total") }
	bytesTotal := func() uint64 { return r.SumCounter("dnsobs_go_heap_allocs_bytes_total") }

	const n, size = 200, 64 << 10
	last, b0, gc0 := objects(), bytesTotal(), r.SumCounter("dnsobs_go_gc_cycles_total")
	first := last
	for i := 0; i < n; i++ {
		runtimeSink = make([]byte, size)
		if i%50 == 0 {
			runtime.GC()
		}
		now := objects()
		if now < last {
			t.Fatalf("objects counter went back from %d to %d", last, now)
		}
		last = now
	}
	if last-first < n {
		t.Errorf("objects counter rose by %d over %d allocations", last-first, n)
	}
	if got := bytesTotal() - b0; got < n*size {
		t.Errorf("bytes counter rose by %d over %d allocations of %d B", got, n, size)
	}
	if r.SumCounter("dnsobs_go_gc_cycles_total") <= gc0 {
		t.Error("a forced collection added no GC cycle")
	}
	if g := r.Sum("dnsobs_go_goroutines"); g < 1 {
		t.Errorf("goroutines gauge = %v", g)
	}

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# TYPE dnsobs_go_heap_allocs_objects_total counter",
		"# TYPE dnsobs_go_heap_allocs_bytes_total counter", "# TYPE dnsobs_go_gc_cycles_total counter",
		"# TYPE dnsobs_go_goroutines gauge"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
}
