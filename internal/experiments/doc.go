// Package experiments regenerates every table and figure of the paper's
// evaluation (sections 3–5). Each experiment is a function that runs the
// required scenario through the Observatory pipeline into a snapshot
// store, reads it back through the query engine, applies the matching
// analysis, and prints the same rows or series the paper reports. See
// DESIGN.md for the per-experiment index and EXPERIMENTS.md for
// paper-vs-measured results.
//
// Concurrency: a Context is single-owner — each experiment run builds
// (or is handed) its own and never shares it. Its stores live under one
// temporary directory that Close removes. Experiments themselves are
// independent and may run concurrently, each with a separate Context;
// the registry of experiments is populated at init time and read-only
// afterwards.
package experiments
