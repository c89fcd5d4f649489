// Package metrics is the Observatory's dependency-free observability
// core: a registry of counters, gauges and fixed-bucket histograms with
// Prometheus text (0.0.4) and JSON exposition. The paper's platform
// runs unattended against a ~200 k tx/s feed (§2); this package is how
// the reproduction watches itself doing the same — every ingest engine,
// the Space-Saving caches, the HLL sketches, the TSV store cascade and
// the chaos injector publish here, and webui serves the result at
// /metrics and /api/metricsz.
//
// Design constraints, in priority order:
//
//   - The record path (Counter.Inc/Add, Gauge.Set, Histogram.Observe)
//     is lock-free and allocation-free: a single atomic op (plus a
//     bounded linear bucket scan for histograms), because it rides on
//     the per-transaction hot path of every engine.
//   - Registration is get-or-create keyed by (name, label set), so any
//     layer can claim its family without coordination; registering the
//     same name with a different metric type panics at wiring time.
//   - Read-through CounterFunc/GaugeFunc adapt existing counters (store
//     fsyncs, chaos injections, HLL promotions, the Go runtime's own
//     runtime/metrics — InstrumentRuntime) without touching their hot
//     paths: the function is called only at collection.
//   - No dependencies: the package imports only the standard library
//     and nothing from this repository, so every layer can import it.
//
// Concurrency: everything is safe for concurrent use. Registration
// takes a registry-wide mutex and fully initializes each (name, labels)
// slot before releasing it (it happens at wiring time, not per
// transaction); the record paths are atomics; collection (Snapshot,
// WritePrometheus, WriteJSON, Sum, SumCounter) copies the family tables
// under a read lock and renders — including calling read-through
// functions — with no lock held, so a scrape never races registration
// and a CounterFunc/GaugeFunc callback may itself touch the registry.
// Each metric is read atomically but the exposition as a whole is not a
// consistent cut — normal for metrics scrapes.
package metrics
