// Package webui exposes the Observatory's snapshot store over HTTP — the
// paper's planned "web interface" for sharing collected data. It serves
// the newest stored window of each aggregation as JSON, queries over
// the store, the stored TSV files verbatim, the process metrics
// registry, and a health endpoint. A server with no store serves only
// the status endpoints.
//
//	GET /healthz                         liveness, transactions, windows
//	GET /metrics                         Prometheus text exposition
//	GET /api/metricsz                    metrics as JSON families
//	GET /api/aggregations                stored aggregation names, sorted
//	GET /api/top/{agg}?n=50&col=hits     newest window's top objects
//	GET /api/detect?n=50                 newest detection window
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
// not write the response at all) and an empty /api/top is "rows":[]
// (not null). The other endpoints use encoding/json.
//
// Concurrency: a Server is safe for concurrent use — it keeps no state
// of its own between requests, and the handlers read only the metrics
// registry and the store, both concurrency-safe. Configure Registry and
// EnablePprof before calling Handler.
package webui
