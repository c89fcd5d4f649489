// Package webui exposes the Observatory's live state over HTTP — the
// paper's planned "web interface" for sharing collected data. It serves
// the latest snapshot of each aggregation as JSON, the stored TSV files
// verbatim, the process metrics registry, and a health endpoint.
//
//	GET /healthz                         liveness + ingest counters
//	GET /metrics                         Prometheus text exposition
//	GET /api/metricsz                    metrics as JSON families
//	GET /api/aggregations                aggregation names, sorted
//	GET /api/top/{agg}?n=50&col=hits     latest top objects as JSON
//	GET /api/files/{agg}                 stored snapshot files
//	GET /files/{agg}/{level}/{start}     one TSV file, as written
//	GET /debug/pprof/...                 profiling (EnablePprof only)
//
// Concurrency: a Server is safe for concurrent use — snapshot state is
// RWMutex-guarded, and the handlers otherwise read only the metrics
// registry (itself concurrency-safe) and the store. Configure Registry
// and EnablePprof before calling Handler.
package webui
