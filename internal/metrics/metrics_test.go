package metrics

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Get-or-create: same identity for the same (name, labels).
	if r.Counter("test_total", "") != c {
		t.Error("second registration returned a different counter")
	}
	if r.Counter("test_total", "", "engine", "a") == c {
		t.Error("different labels returned the same counter")
	}

	g := r.Gauge("test_gauge", "a gauge")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

// TestNilRegistry: a nil registry registers nowhere. Its instruments
// work and are nobody else's — two requests for one name are two
// counters — the read-through forms do nothing, and no name is checked
// against a family table that does not exist.
func TestNilRegistry(t *testing.T) {
	var r *Registry
	c := r.Counter("test_total", "a counter", "engine", "a")
	c.Add(5)
	if other := r.Counter("test_total", "", "engine", "a"); other == c || other.Value() != 0 || c.Value() != 5 {
		t.Error("a nil registry handed out a shared counter")
	}
	r.Gauge("test_total", "a gauge under a counter's name").Set(1.5)
	h := r.Histogram("test_seconds", "", DurationBuckets)
	h.Observe(0.01)
	if got := h.Snapshot().Count; got != 1 {
		t.Errorf("histogram counted %d observations, want 1", got)
	}
	r.CounterFunc("fn_total", "", func() uint64 { t.Error("a nil registry read a CounterFunc"); return 0 })
	r.GaugeFunc("fn_depth", "", func() float64 { t.Error("a nil registry read a GaugeFunc"); return 0 })
}

func TestSum(t *testing.T) {
	r := NewRegistry()
	r.Counter("tx_total", "", "engine", "a").Add(3)
	r.Counter("tx_total", "", "engine", "b").Add(4)
	r.CounterFunc("tx_total", "", func() uint64 { return 10 }, "engine", "c")
	if got := r.Sum("tx_total"); got != 17 {
		t.Fatalf("Sum = %v, want 17", got)
	}
	if got := r.Sum("missing"); got != 0 {
		t.Fatalf("Sum(missing) = %v, want 0", got)
	}
	if got := r.SumCounter("tx_total"); got != 17 {
		t.Fatalf("SumCounter = %v, want 17", got)
	}
	if got := r.SumCounter("missing"); got != 0 {
		t.Fatalf("SumCounter(missing) = %v, want 0", got)
	}
	// A histogram family sums its observation counts, its _count series.
	r.Histogram("flush_seconds", "", DurationBuckets, "engine", "a").Observe(0.5)
	r.Histogram("flush_seconds", "", DurationBuckets, "engine", "b").Observe(2)
	r.Histogram("flush_seconds", "", DurationBuckets, "engine", "b").Observe(3)
	if got := r.SumCounter("flush_seconds"); got != 3 {
		t.Fatalf("SumCounter(histogram) = %v, want 3", got)
	}
}

// TestSumCounterExact: counter totals above 2^53 are not representable
// in float64, so Sum rounds — SumCounter must not.
func TestSumCounterExact(t *testing.T) {
	r := NewRegistry()
	const big = uint64(1<<53) + 1
	r.Counter("big_total", "").Add(big)
	if got := r.SumCounter("big_total"); got != big {
		t.Fatalf("SumCounter = %d, want %d", got, big)
	}
	// Gauges never contribute to SumCounter.
	r.Gauge("g_depth", "").Set(5)
	if got := r.SumCounter("g_depth"); got != 0 {
		t.Fatalf("SumCounter over a gauge family = %d, want 0", got)
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter family as a gauge did not panic")
		}
	}()
	r.Gauge("x_total", "")
}

// TestPrometheusGolden pins the full exposition of a small registry:
// sorted families, HELP/TYPE comments, label escaping, histogram
// bucket/sum/count rendering.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "transactions", "engine", "sharded").Add(7)
	r.Counter("b_total", "transactions", "engine", `we"ird\`).Add(1)
	r.Gauge("a_depth", "queue depth").Set(3)
	h := r.Histogram("c_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(10)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP a_depth queue depth
# TYPE a_depth gauge
a_depth 3
# HELP b_total transactions
# TYPE b_total counter
b_total{engine="sharded"} 7
b_total{engine="we\"ird\\"} 1
# HELP c_seconds latency
# TYPE c_seconds histogram
c_seconds_bucket{le="0.1"} 1
c_seconds_bucket{le="1"} 3
c_seconds_bucket{le="+Inf"} 4
c_seconds_sum 11.05
c_seconds_count 4
`
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestPrometheusLineShape validates every exposed line against the
// text-format grammar (comment, or sample with optional labels).
func TestPrometheusLineShape(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "", "k", "v").Inc()
	r.GaugeFunc("y", "live", func() float64 { return 1.25 })
	r.Histogram("z_seconds", "", DurationBuckets).Observe(0.003)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("sample line %q: no value separator", line)
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("sample line %q: unterminated label set", line)
			}
			name = name[:i]
		}
		for j := 0; j < len(name); j++ {
			c := name[j]
			if !(c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (j > 0 && c >= '0' && c <= '9')) {
				t.Fatalf("sample line %q: bad metric name %q", line, name)
			}
		}
		if value == "" || strings.ContainsAny(value, " ") {
			t.Fatalf("sample line %q: bad value %q", line, value)
		}
	}
}

func TestJSONShape(t *testing.T) {
	r := NewRegistry()
	r.Counter("tx_total", "transactions", "engine", "serial").Add(12)
	h := r.Histogram("lat_seconds", "", []float64{1})
	h.Observe(0.5)
	h.Observe(2)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var fams []JSONFamily
	if err := json.Unmarshal(buf.Bytes(), &fams); err != nil {
		t.Fatalf("metricsz output is not valid JSON: %v", err)
	}
	if len(fams) != 2 {
		t.Fatalf("got %d families, want 2", len(fams))
	}
	// Sorted by name: lat_seconds first.
	if fams[0].Name != "lat_seconds" || fams[0].Type != TypeHistogram {
		t.Fatalf("family 0 = %+v", fams[0])
	}
	m := fams[0].Metrics[0]
	if m.Count == nil || *m.Count != 2 || m.Sum == nil || *m.Sum != 2.5 {
		t.Errorf("histogram sum/count wrong: %+v", m)
	}
	if m.Buckets["1"] != 1 || m.Buckets["+Inf"] != 1 {
		t.Errorf("histogram buckets wrong: %+v", m.Buckets)
	}
	c := fams[1].Metrics[0]
	if c.Value == nil || *c.Value != 12 || c.Labels["engine"] != "serial" {
		t.Errorf("counter child wrong: %+v", c)
	}
}

// TestConcurrentRegisterCollect hammers registration, recording and
// collection from many goroutines; run under -race.
func TestConcurrentRegisterCollect(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := []string{"m_a_total", "m_b_total", "m_c", "m_d_seconds", "m_e_total", "m_f"}[g]
			for i := 0; i < 2000; i++ {
				switch g {
				case 0, 1:
					r.Counter(name, "", "w", string(rune('a'+i%3))).Inc()
				case 2:
					r.Gauge(name, "").Set(float64(i))
				case 3:
					r.Histogram(name, "", DurationBuckets).Observe(float64(i) / 1e4)
				case 4:
					// Re-registration replaces the read-through func;
					// must not race with a concurrent collect.
					v := uint64(i)
					r.CounterFunc(name, "", func() uint64 { return v })
				case 5:
					v := float64(i)
					r.GaugeFunc(name, "", func() float64 { return v })
				}
			}
		}(g)
	}
	var collector sync.WaitGroup
	collector.Add(1)
	go func() {
		defer collector.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
				t.Error(err)
				return
			}
			if err := r.WriteJSON(&bytes.Buffer{}); err != nil {
				t.Error(err)
				return
			}
			r.Sum("m_a_total")
		}
	}()
	wg.Wait()
	close(stop)
	collector.Wait()
	if got := r.Sum("m_a_total"); got != 2000 {
		t.Fatalf("m_a_total = %v, want 2000", got)
	}
}

// TestRecordPathAllocs pins the alloc-free contract of the record path
// (the same property BenchmarkMetricsRecord reports at the repo root).
func TestRecordPathAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("alloc_total", "")
	g := r.Gauge("alloc_gauge", "")
	h := r.Histogram("alloc_seconds", "", DurationBuckets)
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Errorf("Counter.Inc allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(4.2) }); n != 0 {
		t.Errorf("Gauge.Set allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(0.017) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %v/op", n)
	}
}
