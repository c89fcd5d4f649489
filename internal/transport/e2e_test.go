package transport

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"io/fs"
	"net/netip"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dnsobservatory/internal/dnswire"
	"dnsobservatory/internal/ipwire"
	"dnsobservatory/internal/observatory"
	"dnsobservatory/internal/sie"
	"dnsobservatory/internal/tsv"
)

// dnsTx builds one well-formed answered transaction with a varied query
// name, timestamped i*50ms after base — the same workload shape as the
// observatory soak tests.
func dnsTx(t testing.TB, i int, base time.Time) *sie.Transaction {
	t.Helper()
	var q dnswire.Message
	q.ID = uint16(i)
	q.Flags.RecursionDesired = true
	qname := fmt.Sprintf("h%d.example%d.com.", i%7, i%90)
	q.Questions = append(q.Questions, dnswire.Question{
		Name: qname, Type: dnswire.TypeA, Class: dnswire.ClassINET})
	qw, err := q.Pack(nil)
	if err != nil {
		t.Fatal(err)
	}
	r := q
	r.Flags.Response = true
	r.Flags.Authoritative = true
	r.Answers = append(r.Answers, dnswire.RR{
		Name: qname, Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 300,
		Data: dnswire.ARData{Addr: netip.MustParseAddr("192.0.2.1")},
	})
	rw, err := r.Pack(nil)
	if err != nil {
		t.Fatal(err)
	}
	src := netip.AddrFrom4([4]byte{198, 51, 100, byte(i%50 + 1)})
	dst := netip.AddrFrom4([4]byte{192, 0, 2, byte(i%20 + 1)})
	at := base.Add(time.Duration(i) * 50 * time.Millisecond)
	return &sie.Transaction{
		QueryPacket:    ipwire.AppendIPv4UDP(nil, src, dst, 4242, ipwire.DNSPort, 64, qw),
		ResponsePacket: ipwire.AppendIPv4UDP(nil, dst, src, ipwire.DNSPort, 4242, 64, rw),
		QueryTime:      at,
		ResponseTime:   at.Add(5 * time.Millisecond),
		SensorID:       1,
	}
}

// ingestAll replays a transaction stream through the dnsobs ingest
// contract — base from the first query time truncated to the minute,
// summarize, serial pipeline, snapshots into a store — then flushes and
// cascades. Returns the aggregation names.
func ingestAll(t *testing.T, dir string, next func(*sie.Transaction) error) []string {
	t.Helper()
	store, err := tsv.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	aggs := observatory.StandardAggregations(0.01)
	var aggNames []string
	for _, a := range aggs {
		aggNames = append(aggNames, a.Name)
	}
	var lastStart int64 = -1
	pipe := observatory.New(observatory.DefaultConfig(), aggs, func(s *tsv.Snapshot) {
		if err := store.Put(s); err != nil {
			t.Error(err)
		}
		lastStart = s.Start
	})
	var summarizer sie.Summarizer
	summarizer.KeepUnparsableResponses = true
	var tx sie.Transaction
	var sum sie.Summary
	var base time.Time
	for {
		err := next(&tx)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := summarizer.Summarize(&tx, &sum); err != nil {
			pipe.RecordRejected()
			continue
		}
		if base.IsZero() {
			base = tx.QueryTime.Truncate(time.Minute)
		}
		pipe.Ingest(&sum, tx.QueryTime.Sub(base).Seconds())
	}
	pipe.Close()
	if err := store.CascadeAll(aggNames, lastStart+60); err != nil {
		t.Fatal(err)
	}
	return aggNames
}

// storeDigests hashes every file under a store directory, keyed by
// relative path.
func storeDigests(t *testing.T, dir string) map[string][32]byte {
	t.Helper()
	out := map[string][32]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		out[rel] = sha256.Sum256(b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEndToEndGoldenTSV proves the transport is invisible to the
// pipeline: the same serialized stream produces byte-identical TSV
// store contents whether it is decoded in-process or shipped through a
// sensor over loopback TCP into a collector first.
func TestEndToEndGoldenTSV(t *testing.T) {
	// One serialized stream, the single source of truth for both paths.
	const n = 3000 // 150 simulated seconds: multiple windows + cascade input
	base := time.Unix(1600000000, 0)
	var stream bytes.Buffer
	w := sie.NewWriter(&stream)
	for i := 0; i < n; i++ {
		if err := w.Write(dnsTx(t, i, base)); err != nil {
			t.Fatal(err)
		}
	}

	// Path A: decode directly.
	dirDirect := t.TempDir()
	rd := sie.NewReader(bytes.NewReader(stream.Bytes()))
	ingestAll(t, dirDirect, rd.Read)

	// Path B: decode, ship through sensor→TCP→collector, ingest from
	// the collector channel.
	dirNet := t.TempDir()
	coll, addr := startCollector(t, CollectorConfig{})
	sendErr := make(chan error, 1)
	go func() {
		s := NewSensor(SensorConfig{Addr: addr, Name: "golden"})
		rd := sie.NewReader(bytes.NewReader(stream.Bytes()))
		var tx sie.Transaction
		for {
			err := rd.Read(&tx)
			if err == io.EOF {
				break
			}
			if err == nil {
				err = s.Write(&tx)
			}
			if err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- s.Close()
	}()
	go func() {
		// Once the sensor has delivered everything, wait for the
		// collector's handler to finish reading it, then release the
		// channel. t.Fatal is off-limits off the test goroutine, so on
		// a timeout just close; the digest comparison will fail loudly.
		if err := <-sendErr; err != nil {
			t.Error(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for coll.Stats().Frames < n && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		coll.Close()
	}()
	aggNames := ingestAll(t, dirNet, func(tx *sie.Transaction) error {
		rx, ok := <-coll.C()
		if !ok {
			return io.EOF
		}
		*tx = *rx
		return nil
	})

	// The two stores must be indistinguishable.
	direct := storeDigests(t, dirDirect)
	networked := storeDigests(t, dirNet)
	if len(direct) == 0 {
		t.Fatal("direct path produced no snapshot files")
	}
	if len(direct) < len(aggNames) {
		t.Fatalf("only %d files for %d aggregations", len(direct), len(aggNames))
	}
	if len(direct) != len(networked) {
		t.Fatalf("file count differs: direct %d, networked %d", len(direct), len(networked))
	}
	for rel, sum := range direct {
		nsum, ok := networked[rel]
		if !ok {
			t.Errorf("networked store is missing %s", rel)
			continue
		}
		if sum != nsum {
			t.Errorf("%s differs between direct and networked ingest", rel)
		}
	}
}
