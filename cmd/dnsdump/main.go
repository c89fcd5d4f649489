// Command dnsdump prints an SIE transaction stream (from dnsgen or any
// compatible producer) as human-readable summary lines — the debugging
// companion to dnsgen and dnsobs.
//
//	$ dnsgen -duration 5 -o - | dnsdump | head
//	00:00:00.123 192.0.2.10 > 198.51.100.53 udp A www.example.com. NOERROR 23.1ms 120B
//
// With -snap it instead dumps one stored snapshot file as TSV text,
// auto-detecting the on-disk format — the way to inspect the columnar
// store's binary .col files, named by the Unix second their window
// starts at:
//
//	$ dnsdump -snap observatory-data/qname-min-1546300860.col | head
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dnsobservatory/internal/cli"
	"dnsobservatory/internal/sie"
	"dnsobservatory/internal/tsv"
)

func main() {
	os.Exit(cli.Exit("dnsdump", run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)))
}

// run is main minus the process: it prints the stream (or -snap's
// snapshot) to stdout and returns the first failure.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dnsdump", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in       = fs.String("i", "-", "input stream file ('-' for stdin)")
		limit    = fs.Uint64("n", 0, "stop after N transactions (0 = all)")
		qname    = fs.String("grep", "", "only show transactions whose QNAME contains this substring")
		snapFile = fs.String("snap", "", "dump a stored snapshot file (TSV or columnar, auto-detected) as TSV text and exit")
	)
	if err := fs.Parse(args); err != nil {
		return cli.Usage(err)
	}
	if *snapFile != "" {
		return dumpSnapshot(*snapFile, stdout, stderr)
	}

	r, err := cli.Open(*in, stdin)
	if err != nil {
		return err
	}
	defer r.Close()
	out := bufio.NewWriter(stdout)
	defer out.Flush()

	reader := sie.NewReader(bufio.NewReaderSize(r, 1<<20))
	var summarizer sie.Summarizer
	summarizer.KeepUnparsableResponses = true
	var tx sie.Transaction
	var sum sie.Summary
	var shown uint64
	for {
		err := reader.Read(&tx)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if err := summarizer.Summarize(&tx, &sum); err != nil {
			fmt.Fprintf(out, "%s UNPARSABLE: %v\n", tx.QueryTime.Format("15:04:05.000"), err)
			continue
		}
		if *qname != "" && !strings.Contains(sum.QName, *qname) {
			continue
		}
		proto := "udp"
		if sum.TCP {
			proto = "tcp"
		}
		status := "TIMEOUT"
		detail := ""
		if sum.Answered {
			status = sum.RCode.String()
			if sum.Trunc {
				status += "+TC"
			}
			detail = fmt.Sprintf(" %.1fms %dB", sum.DelayMs, sum.RespSize)
			if sum.AA {
				detail += " aa"
			}
		}
		fmt.Fprintf(out, "%s %s > %s %s %s %s %s%s\n",
			tx.QueryTime.Format("15:04:05.000"),
			sum.Resolver, sum.Nameserver, proto,
			sum.QType, sum.QName, status, detail)
		shown++
		if *limit > 0 && shown >= *limit {
			break
		}
	}
	fmt.Fprintf(stderr, "dnsdump: %d transactions read, %d shown\n", reader.Count(), shown)
	return nil
}

// dumpSnapshot prints one snapshot file as TSV text, decoding the
// columnar format when the file carries its magic.
func dumpSnapshot(path string, stdout, stderr io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var snap *tsv.Snapshot
	if tsv.IsColumnar(data) {
		snap, err = tsv.DecodeColumnar(data)
	} else {
		snap, err = tsv.Read(bytes.NewReader(data))
	}
	if err != nil {
		return err
	}
	out := bufio.NewWriter(stdout)
	if _, err := snap.WriteTo(out); err != nil {
		return err
	}
	if err := out.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "dnsdump: %s: %d rows, %d columns, %d windows\n",
		path, len(snap.Rows), len(snap.Columns), snap.Windows)
	return nil
}
