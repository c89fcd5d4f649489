package metrics

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. The zero value is
// ready to use; all methods are safe for concurrent use and the record
// path (Inc/Add) is a single atomic add — no allocation, no lock.
type Counter struct {
	v atomic.Uint64
}

// NewCounter returns a standalone counter not attached to any registry
// (engines use these when no registry is configured, so their hot paths
// never need a nil check).
func NewCounter() *Counter { return &Counter{} }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down (queue depth, occupancy,
// heap bytes). The zero value is ready to use; all methods are safe for
// concurrent use and allocation-free.
type Gauge struct {
	bits atomic.Uint64 // math.Float64bits of the current value
}

// NewGauge returns a standalone gauge not attached to any registry.
func NewGauge() *Gauge { return &Gauge{} }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta to the gauge (CAS loop; allocation-free).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram: cumulative-style observation
// counts per upper bound plus a running sum and total count. Buckets
// are fixed at construction, so Observe is allocation-free — a linear
// scan over a handful of bounds and three atomic updates. Safe for
// concurrent use.
type Histogram struct {
	bounds []float64       // ascending upper bounds; +Inf is implicit
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sum    atomic.Uint64   // math.Float64bits of the observation sum
	count  atomic.Uint64
}

// DurationBuckets is the default bucket layout for latency histograms,
// in seconds: 100 µs .. 10 s, roughly 1-2.5-5 per decade.
var DurationBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// NewHistogram returns a standalone histogram over the given ascending
// upper bounds (a final +Inf bucket is implicit). bounds is copied.
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("metrics: histogram bounds must be strictly ascending")
		}
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	return h
}

// Observe records one value. Allocation-free.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nv) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
// Counts are per-bucket (not cumulative); Counts[len(Bounds)] is the
// +Inf bucket.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    float64
}

// Snapshot copies the histogram's current state. Concurrent Observes
// may land between bucket reads, so a snapshot taken during writes is a
// consistent-enough view for monitoring, not a linearizable cut.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds, // immutable after construction; shared
		Counts: make([]uint64, len(h.counts)),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = math.Float64frombits(h.sum.Load())
	return s
}
