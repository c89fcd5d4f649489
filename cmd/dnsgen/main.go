// Command dnsgen generates a synthetic SIE passive-DNS stream — framed
// transactions of raw IP/UDP/DNS packets — to a file, stdout, or a
// remote dnsobs collector, for feeding into dnsobs or third-party
// tooling.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"dnsobservatory/internal/chaos"
	"dnsobservatory/internal/cli"
	"dnsobservatory/internal/encwire"
	"dnsobservatory/internal/scenario"
	"dnsobservatory/internal/simnet"
)

func main() {
	os.Exit(cli.Exit("dnsgen", run(os.Args[1:], os.Stderr)))
}

// run is main minus the exit code: every failure — including a write
// error surfacing mid-stream or only at the final flush — comes back as
// a non-nil error so the process cannot report success for a truncated
// stream.
func run(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("dnsgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out        = fs.String("o", "-", "output file ('-' for stdout)")
		connect    = fs.String("connect", "", "stream to a dnsobs collector (host:port, tcp:host:port or unix:/path) instead of writing a file; a comma-separated list of name=addr pairs addresses a fleet, routed by consistent hash of the sensor name")
		sensorName = fs.String("sensor", "dnsgen", "sensor name sent in the transport handshake (with -connect)")
		sensorWAL  = fs.String("wal", "", "with -connect: spill the unacknowledged batch to a write-ahead log in this directory, so a restarted dnsgen retransmits what was never confirmed")
		duration   = fs.Float64("duration", 300, "simulated seconds")
		qps        = fs.Float64("qps", 2000, "client query events per second")
		resolvers  = fs.Int("resolvers", 200, "recursive resolvers")
		slds       = fs.Int("slds", 4000, "registered domains")
		seed       = fs.Int64("seed", 1, "simulation seed")
		scenPath   = fs.String("scenario", "", "JSON scenario file (overrides the flags above)")
		chaosRate  = fs.Float64("chaos", 0, "inject every stream fault class at this rate (0..1)")
		chaosWrite = fs.Float64("chaos-write", 0, "inject output write failures at this rate (0..1)")
		chaosShort = fs.Float64("chaos-short", 0, "inject short output writes at this rate (0..1)")
		chaosSeed  = fs.Int64("chaos-seed", 1, "fault injector seed (replay a failing run)")
		encMode    = fs.String("enc-mode", "", "model an encrypted client→resolver leg: dot, doh or doq (empty: plaintext)")
		encPad     = fs.String("enc-pad", "none", "padding policy for the encrypted leg: none, edns0 or block")
		encBlock   = fs.Int("enc-block", 0, "block size for -enc-pad block (0: default 256)")
		encOut     = fs.String("enc-out", "", "write the encrypted-leg size/timing observations to this file as framed records (requires -enc-mode)")
	)
	if err := fs.Parse(args); err != nil {
		return cli.Usage(err)
	}

	var inj *chaos.Injector
	if *chaosRate > 0 || *chaosWrite > 0 || *chaosShort > 0 {
		cfg := chaos.Uniform(*chaosRate, *chaosSeed)
		cfg.WriteErrRate = *chaosWrite
		cfg.ShortWriteRate = *chaosShort
		inj = chaos.New(cfg)
	}

	// The modeled encrypted client→resolver leg: -enc-mode turns it on,
	// -enc-out streams its size/timing observations to a framed file the
	// dnsobs -enc-in flag (or encwire.Reader) consumes. The SIE stream
	// itself is byte-identical with or without it.
	var encSink *cli.Sink[*encwire.Observation]
	encCfg := func(cfg *simnet.Config) {}
	if *encMode != "" {
		mode, err := encwire.ParseMode(*encMode)
		if err != nil {
			return err
		}
		policy, err := encwire.ParsePolicy(*encPad)
		if err != nil {
			return err
		}
		if *encOut != "" {
			w, closeFile, err := cli.Create(*encOut, nil)
			if err != nil {
				return err
			}
			encSink = cli.NewSink(encwire.NewWriter(w).Write, closeFile)
		}
		encCfg = func(cfg *simnet.Config) {
			cfg.EncMode = mode
			cfg.EncPolicy = policy
			cfg.EncBlock = *encBlock
			if encSink != nil {
				cfg.EncEmit = encSink.Emit
			}
		}
	} else if *encOut != "" {
		return fmt.Errorf("-enc-out requires -enc-mode")
	}

	var sim *simnet.Sim
	if *scenPath != "" {
		f, err := os.Open(*scenPath)
		if err != nil {
			return err
		}
		doc, err := scenario.Load(f)
		f.Close()
		if err != nil {
			return err
		}
		sim, err = doc.BuildWith(encCfg)
		if err != nil {
			return err
		}
	} else {
		cfg := simnet.DefaultConfig()
		cfg.Duration = *duration
		cfg.QPS = *qps
		cfg.Resolvers = *resolvers
		cfg.SLDs = *slds
		cfg.Seed = *seed
		encCfg(&cfg)
		sim = simnet.New(cfg)
	}

	// The sink: a transport sensor streaming to a collector or a fleet,
	// or a framed file/stdout writer.
	sinkCfg := cli.SinkConfig{Out: *out, Connect: *connect, Sensor: *sensorName, WALDir: *sensorWAL}
	if *chaosWrite > 0 || *chaosShort > 0 {
		sinkCfg.Wrap = inj.WrapWriter
	}
	sink, err := cli.OpenSink(sinkCfg)
	if err != nil {
		return err
	}
	emit := sink.Emit
	if inj != nil {
		emit = inj.Transactions(emit)
	}
	start := time.Now()
	stats := sim.Run(emit)
	if inj != nil {
		inj.Flush() // release reorder-held transactions
	}
	// Both streams' Close errors matter as much as mid-stream ones: a
	// buffered tail that never reached the output is still data loss.
	sinkErr := sink.Close()
	if err := encSink.Close(); sinkErr == nil {
		sinkErr = err
	}
	if sinkErr != nil {
		return sinkErr
	}
	fmt.Fprintf(stderr, "dnsgen: %d transactions (%d client queries, %d cache hits) in %v\n",
		stats.Transactions, stats.ClientQueries, stats.CacheHits, time.Since(start).Round(time.Millisecond))
	if es, ok := sim.EncStats(); ok {
		fmt.Fprintf(stderr, "dnsgen: enc leg (%s/%s): %d flows, %d messages, %d handshakes, %d up / %d down wire bytes (%d padding)\n",
			*encMode, *encPad, es.Flows, es.Messages, es.Handshakes, es.WireUp, es.WireDown, es.PadBytes)
	}
	if inj != nil {
		cs := inj.Stats()
		fmt.Fprintf(stderr, "dnsgen: chaos: %d faults (corrupt %d, truncate %d, dup %d, reorder %d, zerotime %d, backtime %d, oversize %d, writeerr %d, shortwrite %d)\n",
			cs.Total(), cs.Corrupted, cs.Truncated, cs.Duplicated, cs.Reordered, cs.ZeroTime, cs.BackTime, cs.Oversized, cs.WriteErrs, cs.ShortWrites)
	}
	return nil
}
