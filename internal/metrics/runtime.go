package metrics

import rtmetrics "runtime/metrics"

// InstrumentRuntime registers the Go runtime families on r: heap
// allocations (objects and bytes), completed GC cycles and live
// goroutines. Each is read from runtime/metrics when the registry is
// collected, so the process pays nothing for them between scrapes.
// dnsobs_go_heap_allocs_objects_total ÷ dnsobs_engine_ingested_total is
// the allocations per transaction of a live collector.
func InstrumentRuntime(r *Registry) {
	r.CounterFunc("dnsobs_go_heap_allocs_objects_total",
		"heap objects allocated since the process started", readRuntime("/gc/heap/allocs:objects"))
	r.CounterFunc("dnsobs_go_heap_allocs_bytes_total",
		"heap bytes allocated since the process started", readRuntime("/gc/heap/allocs:bytes"))
	r.CounterFunc("dnsobs_go_gc_cycles_total",
		"completed GC cycles", readRuntime("/gc/cycles/total:gc-cycles"))
	goroutines := readRuntime("/sched/goroutines:goroutines")
	r.GaugeFunc("dnsobs_go_goroutines",
		"live goroutines", func() float64 { return float64(goroutines()) })
}

// readRuntime returns a reader of the runtime/metrics value name, which
// must be a uint64 metric; a runtime that does not publish it reads 0.
func readRuntime(name string) func() uint64 {
	return func() uint64 {
		s := []rtmetrics.Sample{{Name: name}}
		rtmetrics.Read(s)
		if s[0].Value.Kind() != rtmetrics.KindUint64 {
			return 0
		}
		return s[0].Value.Uint64()
	}
}
