// Command experiments regenerates the paper's tables and figures from
// simulated SIE traffic. Run one experiment with -run <id> or everything
// with -run all; ids follow the paper (fig2, tab1, tab2, fig3, tab3,
// fig4, fig5, fig6, fig7, fig8, tab4, fig9, v6on).
//
// Every scenario runs into a columnar snapshot store of its own, in a
// temporary directory removed at exit, and the figures are answered by
// queries against it. -ingest runs the shared main scenario straight into
// the -store directory instead (then cascades it), and -top answers
// paper-style "top objects" questions from that store:
//
//	$ experiments -store data -backend columnar -ingest
//	$ experiments -store data -backend columnar -top srvip -k 10 -col hits
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"dnsobservatory/internal/cli"
	"dnsobservatory/internal/experiments"
	"dnsobservatory/internal/tsv"
)

func main() {
	os.Exit(cli.Exit("experiments", run(os.Args[1:], os.Stdout, os.Stderr)))
}

// run is main minus the process: it writes tables to stdout, progress
// to stderr, and returns the first failure — a usage error for a
// missing -store or an unknown experiment.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runID  = fs.String("run", "all", "experiment id or 'all'")
		scale  = fs.Float64("scale", 1, "scenario duration multiplier")
		seed   = fs.Int64("seed", 1, "simulation seed")
		outdir = fs.String("outdir", "", "directory for binary artifacts (fig6 heatmap)")
		list   = fs.Bool("list", false, "list experiments and exit")

		storeDir = fs.String("store", "", "snapshot store directory for -ingest/-top")
		backend  = fs.String("backend", tsv.BackendColumnar, "store backend for -ingest/-top: tsv or columnar")
		ingest   = fs.Bool("ingest", false, "persist the main scenario's snapshots into -store and cascade")
		top      = fs.String("top", "", "query -store for the top objects of this aggregation and exit")
		col      = fs.String("col", "", "ranking column for -top (default: first column)")
		cols     = fs.String("cols", "", "CSV column projection for -top (default: all)")
		k        = fs.Int("k", 10, "row cap for -top (0 = all)")
		level    = fs.String("level", "min", "cascade level name for -top (min, 10min, hour, ...)")
		from     = fs.Int64("from", 0, "inclusive window-start lower bound for -top")
		to       = fs.Int64("to", 0, "exclusive window-start upper bound for -top (0 = unbounded)")
	)
	if err := fs.Parse(args); err != nil {
		return cli.Usage(err)
	}

	if *list {
		for _, e := range experiments.Registry {
			fmt.Fprintf(stdout, "%-6s %s\n", e.ID, e.Title)
		}
		return nil
	}

	ctx := experiments.NewContext(experiments.Options{Scale: *scale, Seed: *seed, OutDir: *outdir})
	defer ctx.Close()

	if *ingest || *top != "" {
		if *storeDir == "" {
			return cli.Usage(errors.New("-ingest/-top require -store"))
		}
		store, err := tsv.NewStoreBackend(*storeDir, *backend)
		if err != nil {
			return err
		}
		defer store.Close()
		if *ingest {
			if err := ingestMain(ctx, store, stderr); err != nil {
				return fmt.Errorf("ingest: %w", err)
			}
		}
		if *top != "" {
			if err := queryTop(stdout, store, *top, *level, *cols, *col, *k, *from, *to); err != nil {
				return fmt.Errorf("top: %w", err)
			}
		}
		return nil
	}
	todo := experiments.Registry
	if *runID != "all" {
		e := experiments.Find(*runID)
		if e == nil {
			return cli.Usage(fmt.Errorf("unknown experiment %q; use -list", *runID))
		}
		todo = []experiments.Experiment{*e}
	}
	for _, e := range todo {
		fmt.Fprintf(stdout, "==== %s — %s ====\n", e.ID, e.Title)
		start := time.Now()
		if err := e.Run(ctx, stdout); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintf(stdout, "---- %s done in %v ----\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// ingestMain runs the main scenario straight into the store, which
// cascades it as dnsobs would, so -top queries can range over any level.
func ingestMain(ctx *experiments.Context, store *tsv.Store, stderr io.Writer) error {
	res := ctx.MainInto(store)
	if res.Err != nil {
		return res.Err
	}
	fmt.Fprintf(stderr, "experiments: ingested %d snapshots (%s) into %s [%s backend]\n",
		store.Puts(), strings.Join(res.Aggs, ", "), store.Dir(), store.Backend())
	return nil
}

// queryTop answers one top-k question through the query engine and
// prints the result as a table.
func queryTop(stdout io.Writer, store *tsv.Store, agg, levelName, colsCSV, orderBy string, k int, from, to int64) error {
	lv, ok := tsv.ParseLevel(levelName)
	if !ok {
		return fmt.Errorf("unknown level %q", levelName)
	}
	q := tsv.Query{Agg: agg, Level: lv, From: from, To: to, OrderBy: orderBy, K: k}
	if colsCSV != "" {
		q.Columns = strings.Split(colsCSV, ",")
	}
	res, err := tsv.RunQuery(store, q)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "top %s (%s, %d windows over %d files)\n", agg, res.Level.Name(), res.Windows, res.Files)
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "rank\tkey\t%s\n", strings.Join(res.Columns, "\t"))
	for i, r := range res.Rows {
		fmt.Fprintf(tw, "%d\t%s", i+1, r.Key)
		for _, v := range r.Values {
			fmt.Fprintf(tw, "\t%g", v)
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}
