// Package webui exposes the Observatory's live state over HTTP — the
// paper's planned "web interface" for sharing collected data. It serves
// the latest snapshot of each aggregation as JSON, queries over the
// snapshot store, the stored TSV files verbatim, the process metrics
// registry, and a health endpoint.
//
//	GET /healthz                         liveness + ingest counters
//	GET /metrics                         Prometheus text exposition
//	GET /api/metricsz                    metrics as JSON families
//	GET /api/aggregations                aggregation names, sorted
//	GET /api/top/{agg}?n=50&col=hits     latest top objects as JSON
//	GET /api/detect?n=50                 latest detection window
//	GET /api/encdns                      encrypted-leg accounting
//	GET /api/query?agg=…                 a query over the store
//	GET /api/files/{agg}                 stored snapshot files
//	GET /files/{agg}/{level}/{start}     one TSV file, as written
//	GET /debug/pprof/...                 profiling (EnablePprof only)
//
// The three row endpoints (/api/query, /api/top, /api/detect) append
// their answer into a pooled buffer (rowWriter), with no allocation per
// row. Their bodies are byte for byte what encoding/json wrote for rows
// of {"rank","key","values"}, values keyed by column name in sorted
// order, except that a NaN or ±Inf value is null (encoding/json could
// not write the response at all). The other endpoints use
// encoding/json.
//
// Concurrency: a Server is safe for concurrent use — snapshot state is
// RWMutex-guarded, and the handlers otherwise read only the metrics
// registry (itself concurrency-safe) and the store. Configure Registry
// and EnablePprof before calling Handler.
package webui
