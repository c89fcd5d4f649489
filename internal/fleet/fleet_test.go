package fleet

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("sensor-%d", i)
	}
	return out
}

// TestRingDeterminism: placement is a pure function of the member set —
// insertion order is irrelevant, and every key resolves on a non-empty
// ring.
func TestRingDeterminism(t *testing.T) {
	a := NewRing(0)
	for _, n := range []string{"alpha", "beta", "gamma"} {
		a.Add(n)
	}
	b := NewRing(0)
	for _, n := range []string{"gamma", "alpha", "beta", "alpha"} {
		b.Add(n)
	}
	for _, k := range keys(500) {
		oa, ok := a.Owner(k)
		if !ok {
			t.Fatalf("no owner for %q", k)
		}
		ob, _ := b.Owner(k)
		if oa != ob {
			t.Fatalf("owner of %q differs by insertion order: %q vs %q", k, oa, ob)
		}
	}
	if _, ok := NewRing(0).Owner("x"); ok {
		t.Fatal("empty ring returned an owner")
	}
	if got := a.Nodes(); len(got) != 3 || got[0] != "alpha" || got[2] != "gamma" {
		t.Fatalf("Nodes() = %v", got)
	}
	if !a.Has("beta") || a.Has("delta") {
		t.Fatal("Has is wrong")
	}
}

func TestParseMembers(t *testing.T) {
	m, err := ParseMembers("A=127.0.0.1:1, B=unix:/tmp/b,A=h:2")
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 || m["A"] != "h:2" || m["B"] != "unix:/tmp/b" {
		t.Fatalf("members = %v", m)
	}
	for _, bad := range []string{"", "A", "A=", "=h:1", "A=h:1,,B=h:2", "h:1,h:2"} {
		if _, err := ParseMembers(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

// TestRingRebalanceMinimality: removing one member moves only that
// member's keys; the displaced keys scatter across the survivors rather
// than piling onto one.
func TestRingRebalanceMinimality(t *testing.T) {
	r := NewRing(0)
	for _, n := range []string{"A", "B", "C"} {
		r.Add(n)
	}
	ks := keys(3000)
	before := map[string]string{}
	perNode := map[string]int{}
	for _, k := range ks {
		o, _ := r.Owner(k)
		before[k] = o
		perNode[o]++
	}
	for _, n := range []string{"A", "B", "C"} {
		if perNode[n] == 0 {
			t.Fatalf("node %s owns nothing of %d keys", n, len(ks))
		}
	}

	r.Remove("B")
	inherited := map[string]int{}
	for _, k := range ks {
		o, _ := r.Owner(k)
		if before[k] != "B" {
			if o != before[k] {
				t.Fatalf("key %q moved %s->%s though B's departure should not touch it", k, before[k], o)
			}
			continue
		}
		if o == "B" {
			t.Fatalf("key %q still owned by removed member", k)
		}
		inherited[o]++
	}
	if len(inherited) < 2 {
		t.Fatalf("B's keys all fell to one survivor: %v", inherited)
	}
}

// TestRingOwnerAvoiding: the failover walk lands on the next acceptable
// member and reports failure only when no member qualifies.
func TestRingOwnerAvoiding(t *testing.T) {
	r := NewRing(0)
	r.Add("A")
	r.Add("B")
	owner, _ := r.Owner("some-sensor")
	alt, ok := r.OwnerAvoiding("some-sensor", func(n string) bool { return n == owner })
	if !ok || alt == owner {
		t.Fatalf("avoiding %q gave (%q, %v)", owner, alt, ok)
	}
	if _, ok := r.OwnerAvoiding("some-sensor", func(string) bool { return true }); ok {
		t.Fatal("avoiding everyone still found an owner")
	}
}

// TestRouterFailover: a failed dial starts the owner's cooldown, the
// next attempt walks to a survivor, and the cooldown expiring readmits
// the member.
func TestRouterFailover(t *testing.T) {
	rt := NewRouter(RouterConfig{Cooldown: 50 * time.Millisecond})
	rt.SetNode("n1", "127.0.0.1:1111")
	rt.SetNode("n2", "127.0.0.1:2222")

	const sensor = "sensor-7"
	owner, ownerAddr, ok := rt.Owner(sensor)
	if !ok {
		t.Fatal("no owner")
	}

	// The owner refuses connections; the other member answers.
	var dialed []string
	rt.dial = func(network, address string, timeout time.Duration) (net.Conn, error) {
		dialed = append(dialed, address)
		if address == ownerAddr {
			return nil, errors.New("refused")
		}
		c, s := net.Pipe()
		s.Close()
		return c, nil
	}

	dial := rt.DialFunc(sensor)
	if _, err := dial(); err == nil {
		t.Fatal("dial to the dead owner succeeded")
	}
	// Owner is cooling down: placement moves to the survivor.
	alt, _, ok := rt.Owner(sensor)
	if !ok || alt == owner {
		t.Fatalf("owner after failure = %q (ok=%v), want the other member", alt, ok)
	}
	conn, err := dial()
	if err != nil {
		t.Fatalf("failover dial: %v", err)
	}
	conn.Close()
	if len(dialed) != 2 {
		t.Fatalf("dialed %v, want owner then survivor", dialed)
	}

	// Status surfaces the cooldown, and expiry readmits the member.
	down := 0
	for _, st := range rt.Status() {
		if st.Down {
			down++
			if st.Node != owner {
				t.Fatalf("wrong member down: %+v", st)
			}
		}
	}
	if down != 1 {
		t.Fatalf("%d members down, want 1", down)
	}
	time.Sleep(60 * time.Millisecond)
	if back, _, _ := rt.Owner(sensor); back != owner {
		t.Fatalf("owner after cooldown = %q, want %q readmitted", back, owner)
	}

	// RemoveNode is permanent until re-added.
	rt.RemoveNode(owner)
	if n, _, ok := rt.Owner(sensor); !ok || n == owner {
		t.Fatalf("owner after removal = %q (ok=%v)", n, ok)
	}
}

// TestRouterNoCollector: an empty fleet, or one entirely in cooldown,
// yields ErrNoCollector rather than a hang or a bogus dial.
func TestRouterNoCollector(t *testing.T) {
	rt := NewRouter(RouterConfig{Cooldown: time.Hour})
	if _, err := rt.DialFunc("s")(); !errors.Is(err, ErrNoCollector) {
		t.Fatalf("empty fleet dial: %v", err)
	}
	rt.SetNode("only", "127.0.0.1:1")
	rt.MarkDown("only")
	if _, err := rt.DialFunc("s")(); !errors.Is(err, ErrNoCollector) {
		t.Fatalf("all-down fleet dial: %v", err)
	}
	// MarkDown of an unknown member is a no-op.
	rt.MarkDown("ghost")
	if len(rt.Status()) != 1 {
		t.Fatalf("Status = %+v", rt.Status())
	}
}

type fakeErr struct{ timeout bool }

func (e fakeErr) Error() string   { return "fake" }
func (e fakeErr) Timeout() bool   { return e.timeout }
func (e fakeErr) Temporary() bool { return e.timeout }

type fakeConn struct {
	net.Conn
	err error
}

func (f fakeConn) Read(p []byte) (int, error)  { return 0, f.err }
func (f fakeConn) Write(p []byte) (int, error) { return 0, f.err }

// TestRoutedConnFeedback: a broken read or write marks the member down,
// but a deadline pass — routine ack-sweep behavior — does not.
func TestRoutedConnFeedback(t *testing.T) {
	isDown := func(rt *Router, node string) bool {
		for _, st := range rt.Status() {
			if st.Node == node {
				return st.Down
			}
		}
		return false
	}

	rt := NewRouter(RouterConfig{Cooldown: time.Hour})
	rt.SetNode("n", "addr")
	rc := &routedConn{Conn: fakeConn{err: fakeErr{timeout: true}}, rt: rt, node: "n"}
	rc.Read(nil)
	rc.Write(nil)
	if isDown(rt, "n") {
		t.Fatal("timeout errors must not mark the member down")
	}
	rc = &routedConn{Conn: fakeConn{err: fakeErr{}}, rt: rt, node: "n"}
	rc.Read(nil)
	if !isDown(rt, "n") {
		t.Fatal("hard read error did not mark the member down")
	}
}
