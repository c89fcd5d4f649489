package fleet

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"dnsobservatory/internal/transport"
)

// ErrNoCollector is returned by a Router dial when every fleet member
// is unknown or cooling down.
var ErrNoCollector = errors.New("fleet: no reachable collector")

// Router maps sensors to collectors: a Ring for placement plus dial
// addresses, liveness cooldowns and connection-failure feedback. Plug
// DialFunc into transport.SensorConfig.Dial and the sensor follows the
// ring — when its collector leaves the fleet or stops answering, the
// reconnect machinery it already has (backoff, whole-batch retransmit)
// lands it on the next owner, and the collector-side dedup keeps the
// overlap exactly-once.
//
// Router is safe for concurrent use by many sensors.
type Router struct {
	mu        sync.Mutex
	ring      *Ring
	addrs     map[string]string
	downUntil map[string]time.Time
	cooldown  time.Duration

	dialTimeout time.Duration
	// dial overrides net.DialTimeout (tests).
	dial func(network, address string, timeout time.Duration) (net.Conn, error)
}

// RouterConfig tunes a Router. The zero value is usable.
type RouterConfig struct {
	// Vnodes per member (DefaultVnodes when <= 0).
	Vnodes int
	// Cooldown is how long a member marked down is skipped before it is
	// probed again (default 5s).
	Cooldown time.Duration
	// DialTimeout bounds one connection attempt (default 5s).
	DialTimeout time.Duration
}

// NodeStatus is one fleet member's view for /healthz.
type NodeStatus struct {
	Node string `json:"node"`
	Addr string `json:"addr"`
	Down bool   `json:"down"`
}

// NewRouter returns an empty router; add members with SetNode.
func NewRouter(cfg RouterConfig) *Router {
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 5 * time.Second
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	return &Router{
		ring:        NewRing(cfg.Vnodes),
		addrs:       map[string]string{},
		downUntil:   map[string]time.Time{},
		cooldown:    cfg.Cooldown,
		dialTimeout: cfg.DialTimeout,
		dial:        net.DialTimeout,
	}
}

// ParseMembers parses a fleet membership list, "name=addr,name=addr,…"
// (the form dnsobs -peers and a sensor's -connect take), into a map
// from member name to address. A repeated name keeps its last address.
func ParseMembers(list string) (map[string]string, error) {
	members := map[string]string{}
	for _, kv := range strings.Split(list, ",") {
		name, addr, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok || name == "" || addr == "" {
			return nil, fmt.Errorf("fleet: bad member %q (want name=addr)", kv)
		}
		members[name] = addr
	}
	return members, nil
}

// SetNode adds (or re-addresses) a member and clears its cooldown.
func (rt *Router) SetNode(node, addr string) {
	rt.mu.Lock()
	rt.ring.Add(node)
	rt.addrs[node] = addr
	delete(rt.downUntil, node)
	rt.mu.Unlock()
}

// RemoveNode takes a member out of the ring; its sensors redial their
// new owners on the next reconnect.
func (rt *Router) RemoveNode(node string) {
	rt.mu.Lock()
	rt.ring.Remove(node)
	delete(rt.addrs, node)
	delete(rt.downUntil, node)
	rt.mu.Unlock()
}

// MarkDown starts a member's cooldown: placement skips it until the
// cooldown expires, then probes it again.
func (rt *Router) MarkDown(node string) {
	rt.mu.Lock()
	if _, ok := rt.addrs[node]; ok {
		rt.downUntil[node] = time.Now().Add(rt.cooldown)
	}
	rt.mu.Unlock()
}

// Owner returns the member currently owning the sensor, skipping
// members in cooldown. ok is false when none is available.
func (rt *Router) Owner(sensor string) (node, addr string, ok bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.ownerLocked(sensor)
}

func (rt *Router) ownerLocked(sensor string) (string, string, bool) {
	now := time.Now()
	node, ok := rt.ring.OwnerAvoiding(sensor, func(n string) bool {
		return now.Before(rt.downUntil[n])
	})
	if !ok {
		return "", "", false
	}
	return node, rt.addrs[node], true
}

// Status reports every member and whether it is cooling down, sorted
// by node name — the fleet half of /healthz.
func (rt *Router) Status() []NodeStatus {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	now := time.Now()
	out := make([]NodeStatus, 0, len(rt.addrs))
	for _, n := range rt.ring.Nodes() {
		out = append(out, NodeStatus{Node: n, Addr: rt.addrs[n], Down: now.Before(rt.downUntil[n])})
	}
	return out
}

// DialFunc returns a transport.SensorConfig.Dial that resolves the
// sensor's current owner on every attempt. A failed dial marks the
// owner down, so the sensor's next backoff attempt walks to the
// following member; read/write failures on the established connection
// mark it down too (the collector died mid-stream).
func (rt *Router) DialFunc(sensor string) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		node, addr, ok := rt.Owner(sensor)
		if !ok {
			return nil, ErrNoCollector
		}
		network, address := transport.SplitAddr(addr)
		conn, err := rt.dial(network, address, rt.dialTimeout)
		if err != nil {
			rt.MarkDown(node)
			return nil, fmt.Errorf("fleet: dial %s (%s): %w", node, addr, err)
		}
		return &routedConn{Conn: conn, rt: rt, node: node}, nil
	}
}

// routedConn feeds connection failures back into the router: a broken
// read or write (not a deadline pass, which is routine ack-sweep
// behavior) starts the member's cooldown.
type routedConn struct {
	net.Conn
	rt   *Router
	node string
}

func (rc *routedConn) note(err error) {
	if err == nil {
		return
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return
	}
	rc.rt.MarkDown(rc.node)
}

func (rc *routedConn) Read(p []byte) (int, error) {
	n, err := rc.Conn.Read(p)
	rc.note(err)
	return n, err
}

func (rc *routedConn) Write(p []byte) (int, error) {
	n, err := rc.Conn.Write(p)
	rc.note(err)
	return n, err
}
