// Package tsv implements the Observatory's on-disk time series (paper
// §2.4): snapshot files whose names encode the aggregation, time
// granularity and collection start, in a TSV text codec and a columnar
// binary one (DNSC1); cascading time aggregation from minutely files up
// to yearly ones (mean rates for counters, zero-filled for missing
// objects; means over present windows for gauges; window-weighted
// majority for modes); the per-granularity retention policy that keeps
// disk usage bounded; and the query engine that answers top-k, point
// and range-predicate questions over a time range, reading only the
// file sections a question needs.
//
// Concurrency: Store and Engine methods are safe for concurrent use.
// Put writes to a uniquely numbered temp file and renames it into place
// atomically, so concurrent puts (snapshot callbacks of engines that
// share a store) never interleave bytes; the operation counters are
// atomics. CascadeAll runs its own worker pool, GOMAXPROCS wide, whose
// output is byte-identical to a serial cascade. Instrument publishes the store counters and per-level
// cascade-duration histograms to a metrics registry without adding work
// to Put itself.
//
// Queries read through a bounded table of open files, each with the
// frame its first read checked. Put and Retention drop a file's entry
// as they do its listing, and an entry closes when the last read pinned
// to it ends, so a query beside them reads the old file whole or the
// new one; a file changed behind the store's back is not seen until its
// entry goes. Get, GetProjected and the cascade open and close each
// file. Close closes the table.
//
// Writes encode into pooled buffers too: either codec builds the whole
// file in a recycled buffer and hands it to the file in one Write, so a
// warm store's Put allocates the file's names and handle and nothing
// that grows with the snapshot. The text codec writes a cell that is a
// non-negative integer below 1e6 as its digits and reads a field of up
// to 15 digits by accumulation — byte for byte and bit for bit what
// strconv's shortest 'g' formatting and ParseFloat, which take every
// other cell, make of them.
//
// Reads decode into pooled scratch, one kind for both codecs: the
// columnar reader fills it section by section, the text reader parses
// the whole file into it — keys copied back to back, the values of the
// columns the read needs by column — and either way a Get materializes
// it and a fold reads it in place. A query borrows one accumulator,
// which carries the scratch every file of the range is read through,
// and returns it when it is done, so concurrent queries never share
// scratch and a query's steady-state allocation does not depend on the
// bytes in range, on either backend. Byte views of a file die when the
// next file is opened; whatever a caller receives — a Snapshot from Get
// or GetProjected, a Result from Engine.Run — owns its memory and stays
// valid after any number of later reads. A file that was listed but is
// gone by the time a query opens it (Retention deletes before it
// invalidates the listing) is skipped as a window that no longer
// exists; one that cannot be parsed is skipped and counted corrupt.
//
// The cascade reads the way a query does. A window is built when the
// upper level's listing holds it, so a pass opens only the inputs of
// windows that closed since the last one, and each input folds into one
// accumulator as it is read. A corrupt upper file is not rebuilt: its
// readers skip and count it like any other.
package tsv
