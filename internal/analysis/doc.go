// Package analysis implements the paper's evaluation: every table and
// figure of sections 3–5 is regenerated by a function here, operating on
// Observatory snapshots produced from simulated SIE traffic. RunWith puts
// them into a snapshot store as the pipeline emits them, and the
// analyses read that archive through the query engine, as the paper's
// notebooks read the Observatory's (§2.4).
//
// Concurrency: everything in this package is pure computation — the
// functions take snapshots or series, return derived tables, and keep no
// package-level state. They are safe to call from concurrently running
// experiments as long as callers do not mutate a shared input while an
// analysis reads it (the experiments harness gives each run its own
// context, so this never arises in practice).
package analysis
