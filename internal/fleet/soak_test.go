package fleet

import (
	"crypto/sha256"
	"fmt"
	"io/fs"
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"dnsobservatory/internal/dnswire"
	"dnsobservatory/internal/ipwire"
	"dnsobservatory/internal/observatory"
	"dnsobservatory/internal/sie"
	"dnsobservatory/internal/transport"
	"dnsobservatory/internal/tsv"
	"dnsobservatory/internal/wal"
)

// The chaos soak's workload: soakWindows one-minute windows, perWin
// transactions per sensor per window, spaced to stay inside the window.
const (
	soakWindows = 4
	perWin      = 120
	soakSpacing = 450 * time.Millisecond // 120×450ms = 54s < one window
)

// soakTx builds sensor s's i-th transaction of window w. Every
// aggregation key — qname, esld, etld, srvip, qtype, rcode, srcsrv,
// aafqdn — embeds the sensor index, so the per-sensor key spaces are
// pairwise disjoint and each stays far below its Top-K capacity. That
// is what makes the fleet byte-identical to a single node: with no
// evictions and no shared keys, the engine state is a disjoint union of
// per-key state, each fed by one sensor's in-order stream, so the
// arrival interleaving across sensors cannot influence any snapshot.
func soakTx(t testing.TB, s, w, i int, base time.Time) *sie.Transaction {
	t.Helper()
	var q dnswire.Message
	q.ID = uint16(w*perWin + i)
	q.Flags.RecursionDesired = true
	qname := fmt.Sprintf("h%d.ex%d.zone%d.", i%5, s, s)
	q.Questions = append(q.Questions, dnswire.Question{
		Name: qname, Type: dnswire.Type(1 + s), Class: dnswire.ClassINET})
	qw, err := q.Pack(nil)
	if err != nil {
		t.Fatal(err)
	}
	r := q
	r.Flags.Response = true
	r.Flags.Authoritative = true
	r.Flags.RCode = dnswire.RCode(s) // sensor-disjoint rcode dataset keys
	r.Answers = append(r.Answers, dnswire.RR{
		Name: qname, Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 300,
		Data: dnswire.ARData{Addr: netip.MustParseAddr("192.0.2.1")},
	})
	rw, err := r.Pack(nil)
	if err != nil {
		t.Fatal(err)
	}
	src := netip.AddrFrom4([4]byte{10, byte(s), 0, byte(i%4 + 1)}) // resolver
	dst := netip.AddrFrom4([4]byte{192, 0, 2, byte(s + 1)})        // nameserver
	at := base.Add(time.Duration(w)*time.Minute + time.Duration(i)*soakSpacing)
	return &sie.Transaction{
		QueryPacket:    ipwire.AppendIPv4UDP(nil, src, dst, 4242, ipwire.DNSPort, 64, qw),
		ResponsePacket: ipwire.AppendIPv4UDP(nil, dst, src, ipwire.DNSPort, 4242, 64, rw),
		QueryTime:      at,
		ResponseTime:   at.Add(5 * time.Millisecond),
		SensorID:       1,
	}
}

// soakEngine is one collector's consumer: a serial observatory pipeline
// writing minute snapshots into its own store, counting consumed
// transactions for the test's lockstep barriers.
type soakEngine struct {
	store    *tsv.Store
	pipe     *observatory.Engine
	aggNames []string
	consumed atomic.Int64
	done     chan struct{}
}

func newSoakEngine(t *testing.T) *soakEngine {
	t.Helper()
	store, err := tsv.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := &soakEngine{store: store, done: make(chan struct{})}
	aggs := observatory.StandardAggregations(0.01)
	for _, a := range aggs {
		e.aggNames = append(e.aggNames, a.Name)
	}
	e.pipe = observatory.New(observatory.DefaultConfig(), aggs, func(s *tsv.Snapshot) {
		if err := store.Put(s); err != nil {
			t.Error(err)
		}
	})
	return e
}

func (e *soakEngine) ingest(t *testing.T, sum *sie.Summarizer, tx *sie.Transaction, base time.Time) {
	var s sie.Summary
	if err := sum.Summarize(tx, &s); err != nil {
		t.Errorf("summarize: %v", err)
		e.pipe.RecordRejected()
		return
	}
	e.pipe.Ingest(&s, tx.QueryTime.Sub(base).Seconds())
}

// run consumes the collector's channel until Close.
func (e *soakEngine) run(t *testing.T, coll *transport.Collector, base time.Time) {
	go func() {
		defer close(e.done)
		var sum sie.Summarizer
		sum.KeepUnparsableResponses = true
		for tx := range coll.C() {
			e.ingest(t, &sum, tx, base)
			e.consumed.Add(1)
		}
	}()
}

func waitSoak(t *testing.T, what string, cond func() bool, diag ...func() string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			for _, d := range diag {
				t.Log(d())
			}
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// soakDigests hashes every file under a store directory by relative
// path — byte identity, not just semantic equality.
func soakDigests(t *testing.T, dir string) map[string][32]byte {
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

// refMergeStores writes into dst the union of the sources' minute
// windows, a frozen copy of the fleet.MergeStores (and the
// tsv.MergeParts under it) the soak used to call, cut to what the soak
// asks of it: rows united (a key in several parts summed on Counter
// columns and taken from the heavier part elsewhere), statistics
// summed, rows in report order, no top-k cut.
func refMergeStores(t *testing.T, dst *tsv.Store, aggs []string, srcs ...*tsv.Store) {
	t.Helper()
	for _, agg := range aggs {
		byStart := map[int64][]*tsv.Snapshot{}
		var starts []int64
		for _, src := range srcs {
			list, err := src.List(agg, tsv.Minutely)
			if err != nil {
				t.Fatal(err)
			}
			for _, start := range list {
				snap, err := src.Get(agg, tsv.Minutely, start)
				if err != nil {
					t.Fatal(err)
				}
				if byStart[start] == nil {
					starts = append(starts, start)
				}
				byStart[start] = append(byStart[start], snap)
			}
		}
		slices.Sort(starts)
		for _, start := range starts {
			parts := byStart[start]
			out := *parts[0]
			out.Rows, out.TotalBefore, out.TotalAfter = nil, 0, 0
			idx := map[string]int{}
			for _, p := range parts {
				out.TotalBefore += p.TotalBefore
				out.TotalAfter += p.TotalAfter
				for _, r := range p.Rows {
					j, dup := idx[r.Key]
					if !dup {
						idx[r.Key] = len(out.Rows)
						out.Rows = append(out.Rows, tsv.Row{Key: r.Key, Values: slices.Clone(r.Values)})
						continue
					}
					vals := out.Rows[j].Values
					heavier := len(r.Values) > 0 && r.Values[0] > vals[0]
					for i := range vals {
						if out.Kinds[i] == tsv.Counter {
							vals[i] += r.Values[i]
						} else if heavier {
							vals[i] = r.Values[i]
						}
					}
				}
			}
			out.Rows = tsv.TopRows(out.Rows, 0, 0)
			if err := dst.Put(&out); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestFleetChaosSoak is the durable-ingest acceptance run: three
// collectors share the sensor fleet by consistent hash, one is killed
// mid-window with acknowledgements disabled (so its sensors hold their
// whole batch), the survivors absorb its write-ahead log and the ring
// rebalances its sensors onto them. The merged TSV store must be
// byte-identical to a single collector seeing all the traffic: zero
// transactions lost, every duplicate from the retransmissions accounted
// by the dedup counters.
//
// Determinism argument, layer by layer: (1) sensor key spaces are
// disjoint and below every Top-K capacity, so engine state is per-key
// and arrival interleaving across sensors is irrelevant; (2) each
// sensor's stream arrives in order — directly, via WAL absorption (in
// journal order), or via retransmission (in sequence order), and the
// (sensor, epoch, seq) dedup guarantees exactly one delivery along
// exactly one of those paths; (3) lockstep window barriers keep every
// engine inside window w until all of w's traffic has been consumed,
// so window dumps cut at identical points; (4) the doomed collector's
// sensors are silent in window 0 and its log is absorbed before its
// sensors reconnect, so their keys' rate-decay history starts at the
// same instant everywhere. Rates are evaluated at the window end, not
// at arrival, which closes the last order dependence.
func TestFleetChaosSoak(t *testing.T) {
	base := time.Unix(1600000000, 0)

	// --- fleet: three collectors with WALs, B refuses to ack ---
	mkColl := func(cfg transport.CollectorConfig) (*transport.Collector, string, string) {
		t.Helper()
		ln, err := transport.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		coll := transport.NewCollector(cfg)
		dir := t.TempDir()
		if err := coll.OpenWAL(dir, wal.Options{}); err != nil {
			t.Fatal(err)
		}
		go coll.Serve(ln)
		return coll, ln.Addr().String(), dir
	}
	collA, addrA, _ := mkColl(transport.CollectorConfig{QueueLen: 64})
	collC, addrC, _ := mkColl(transport.CollectorConfig{QueueLen: 64})
	collB, addrB, walDirB := mkColl(transport.CollectorConfig{QueueLen: 64, DisableAcks: true})

	rt := NewRouter(RouterConfig{Cooldown: 50 * time.Millisecond, DialTimeout: 2 * time.Second})
	rt.SetNode("A", addrA)
	rt.SetNode("B", addrB)
	rt.SetNode("C", addrC)

	// Ownership before and after B's departure, from plain rings (the
	// same placement the router computes).
	ringABC, ringAC := NewRing(0), NewRing(0)
	for _, n := range []string{"A", "B", "C"} {
		ringABC.Add(n)
	}
	ringAC.Add("A")
	ringAC.Add("C")

	const nSensors = 12
	names := make([]string, nSensors)
	ownABC := map[string]string{}
	ownAC := map[string]string{}
	perNode := map[string]int{}
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i)
		o, _ := ringABC.Owner(names[i])
		ownABC[names[i]] = o
		perNode[o]++
		o2, _ := ringAC.Owner(names[i])
		ownAC[names[i]] = o2
	}
	for _, n := range []string{"A", "B", "C"} {
		if perNode[n] == 0 {
			t.Fatalf("degenerate placement %v: every member needs sensors for the soak", perNode)
		}
	}
	t.Logf("placement: %v", perNode)

	// --- sensors: routed dials, conns tracked so the test can sever
	// the doomed collector's links the instant it dies ---
	conns := map[string][]net.Conn{} // touched only by this goroutine
	sensors := map[string]*transport.Sensor{}
	for i, name := range names {
		name := name
		inner := rt.DialFunc(name)
		sensors[name] = transport.NewSensor(transport.SensorConfig{
			Name:  name,
			Epoch: uint64(i + 1),
			Dial: func() (net.Conn, error) {
				c, err := inner()
				if err == nil {
					conns[name] = append(conns[name], c)
				}
				return c, err
			},
			FlushBytes:   1 << 20, // manual Flush only
			WriteTimeout: 2 * time.Second,
			AckTimeout:   2 * time.Second,
			BackoffMin:   time.Millisecond,
			BackoffMax:   10 * time.Millisecond,
		})
	}

	engA, engC := newSoakEngine(t), newSoakEngine(t)
	engA.run(t, collA, base)
	engC.run(t, collC, base)

	exp := map[string]int64{}
	barrier := func(w int) {
		t.Helper()
		waitSoak(t, fmt.Sprintf("window %d consumption A=%d C=%d", w, exp["A"], exp["C"]), func() bool {
			return engA.consumed.Load() == exp["A"] && engC.consumed.Load() == exp["C"]
		}, func() string {
			out := fmt.Sprintf("consumed A=%d C=%d\nA %+v\nC %+v\nB %+v",
				engA.consumed.Load(), engC.consumed.Load(),
				collA.Stats(), collC.Stats(), collB.Stats())
			for _, name := range names {
				out += fmt.Sprintf("\n%s(%s->%s) %+v", name, ownABC[name], ownAC[name], sensors[name].Stats())
			}
			if ws, ok := collA.WALStatus(); ok {
				out += fmt.Sprintf("\nA wal %+v", ws)
			}
			if ws, ok := collC.WALStatus(); ok {
				out += fmt.Sprintf("\nC wal %+v", ws)
			}
			return out
		})
	}
	writeWindow := func(w int, owner map[string]string, skip string) {
		t.Helper()
		for i, name := range names {
			if owner[name] == skip {
				continue
			}
			s := sensors[name]
			for j := 0; j < perWin; j++ {
				if err := s.Write(soakTx(t, i, w, j, base)); err != nil {
					t.Fatalf("window %d sensor %s write: %v", w, name, err)
				}
			}
			if err := s.Flush(); err != nil {
				t.Fatalf("window %d sensor %s flush: %v", w, name, err)
			}
			exp[owner[name]] += perWin
		}
	}

	// Window 0: B's sensors are silent — their keys must have no
	// rate-decay history predating the failover.
	writeWindow(0, ownABC, "B")
	barrier(0)

	// Window 1: everyone transmits; B journals its share but never
	// acks, so its sensors keep the whole window buffered.
	writeWindow(1, ownABC, "")
	expB := int64(perNode["B"]) * perWin
	barrier(1)
	waitSoak(t, "B journaling its frames", func() bool {
		return int64(collB.Stats().Frames) == exp["B"] && exp["B"] == expB
	})

	// --- kill B mid-stream, before it ever snapshots ---
	collB.Close()
	for _, name := range names {
		if ownABC[name] == "B" {
			for _, c := range conns[name] {
				c.Close() // sever: the sensor's next flush fails fast and redials
			}
		}
	}
	if err := collB.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	// Survivors absorb B's journal, each taking exactly the sensors the
	// rebalanced ring assigns to it — before any of those sensors can
	// reconnect and retransmit.
	peer, err := wal.Open(walDirB, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var totalAbsorbed uint64
	for _, surv := range []struct {
		name string
		coll *transport.Collector
	}{{"A", collA}, {"C", collC}} {
		surv := surv
		absorbed, deduped, err := surv.coll.AbsorbLog(peer, func(sensor string) bool {
			return ownAC[sensor] == surv.name
		})
		if err != nil {
			t.Fatalf("absorb into %s: %v", surv.name, err)
		}
		if deduped != 0 {
			t.Errorf("absorb into %s deduped %d frames it had never seen", surv.name, deduped)
		}
		totalAbsorbed += absorbed
	}
	if err := peer.Close(); err != nil {
		t.Fatal(err)
	}
	if totalAbsorbed != uint64(expB) {
		t.Fatalf("absorbed %d of B's %d journaled frames", totalAbsorbed, expB)
	}
	rt.RemoveNode("B")
	for _, name := range names {
		if ownABC[name] == "B" {
			exp[ownAC[name]] += perWin // the absorbed window-1 batch
		}
	}
	barrier(1)

	// Windows 2..n: the rebalanced fleet. Displaced sensors redial via
	// the router and retransmit their unacknowledged window-1 batch
	// ahead of the new traffic; the survivors dedup it.
	for w := 2; w < soakWindows; w++ {
		writeWindow(w, ownAC, "")
		barrier(w)
	}

	// --- drain, checkpoint, merge ---
	for _, name := range names {
		if err := sensors[name].Close(); err != nil {
			t.Fatalf("sensor %s close: %v", name, err)
		}
	}
	for _, surv := range []struct {
		name string
		coll *transport.Collector
		eng  *soakEngine
	}{{"A", collA, engA}, {"C", collC, engC}} {
		if err := surv.coll.Checkpoint(uint64(surv.eng.consumed.Load())); err != nil {
			t.Fatalf("checkpoint %s: %v", surv.name, err)
		}
		surv.coll.Close()
		<-surv.eng.done
		if err := surv.coll.CloseWAL(); err != nil {
			t.Fatalf("close WAL %s: %v", surv.name, err)
		}
		st := surv.coll.Stats()
		if st.Frames+st.Replayed != st.Deduped+st.DecodeErrors+st.Shed+st.Enqueued+st.Spilled {
			t.Errorf("%s accounting identity broken: %+v", surv.name, st)
		}
		if st.Shed != 0 || st.DecodeErrors != 0 {
			t.Errorf("%s lost transactions: %+v", surv.name, st)
		}
		if int64(st.Enqueued) != surv.eng.consumed.Load() {
			t.Errorf("%s enqueued %d but engine consumed %d", surv.name, st.Enqueued, surv.eng.consumed.Load())
		}
		surv.eng.pipe.Close()
	}

	// Every duplicate is accounted: the displaced sensors retransmitted
	// exactly the frames the survivors had already absorbed from B's
	// journal — nothing more, nothing less.
	if d := collA.Stats().Deduped + collC.Stats().Deduped; d != totalAbsorbed {
		t.Errorf("deduped %d frames, want exactly the %d absorbed ones", d, totalAbsorbed)
	}
	if totalAbsorbed == 0 {
		t.Error("chaos produced no duplicates: the soak proved nothing")
	}

	merged, err := tsv.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	refMergeStores(t, merged, engA.aggNames, engA.store, engC.store)
	if err := merged.CascadeAll(engA.aggNames, soakWindows*60); err != nil {
		t.Fatal(err)
	}

	// --- baseline: one collector seeing everything, same phasing ---
	bl := newSoakEngine(t)
	var sum sie.Summarizer
	sum.KeepUnparsableResponses = true
	for w := 0; w < soakWindows; w++ {
		for i, name := range names {
			if w == 0 && ownABC[name] == "B" {
				continue
			}
			for j := 0; j < perWin; j++ {
				bl.ingest(t, &sum, soakTx(t, i, w, j, base), base)
			}
		}
	}
	bl.pipe.Close()
	if err := bl.store.CascadeAll(bl.aggNames, soakWindows*60); err != nil {
		t.Fatal(err)
	}

	// --- the verdict: byte identity ---
	want := soakDigests(t, bl.store.Dir())
	got := soakDigests(t, merged.Dir())
	if len(want) < len(bl.aggNames) {
		t.Fatalf("baseline wrote only %d files for %d aggregations", len(want), len(bl.aggNames))
	}
	if len(got) != len(want) {
		t.Errorf("file count differs: fleet %d, single-node %d", len(got), len(want))
	}
	for rel, sumW := range want {
		sumG, ok := got[rel]
		if !ok {
			t.Errorf("fleet store is missing %s", rel)
			continue
		}
		if sumG != sumW {
			t.Errorf("%s differs between fleet and single-node ingest", rel)
		}
	}
	for rel := range got {
		if _, ok := want[rel]; !ok {
			t.Errorf("fleet store has extra file %s", rel)
		}
	}
}
