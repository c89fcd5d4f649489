package simnet

import (
	"fmt"
	"math/rand"
	"net/netip"
)

// Resolver is one recursive resolver contributing cache-miss traffic.
// Its cache implements TTL-based positive caching and RFC 2308 negative
// caching; only misses generate observable transactions, which is what
// makes query volumes TTL-sensitive (paper §4.1).
type Resolver struct {
	Addr     netip.Addr
	Addr6    netip.Addr // zero when the resolver is v4-only
	SensorID uint32
	QMin     bool // performs QNAME minimization (RFC 7816)

	cache map[string]cacheEntry
}

type cacheEntry struct {
	expires  float64
	negative bool
}

func newResolver(addr netip.Addr, sensor uint32, qmin bool) *Resolver {
	return &Resolver{Addr: addr, SensorID: sensor, QMin: qmin, cache: make(map[string]cacheEntry)}
}

// cached reports whether key is live at now.
func (r *Resolver) cached(key string, now float64) (hit, negative bool) {
	e, ok := r.cache[key]
	if !ok || e.expires <= now {
		return false, false
	}
	return true, e.negative
}

// store caches key for ttl seconds.
func (r *Resolver) store(key string, ttl uint32, now float64, negative bool) {
	if ttl == 0 {
		return
	}
	r.cache[key] = cacheEntry{expires: now + float64(ttl), negative: negative}
}

// gc drops expired entries; the simulator calls it periodically so that
// long runs stay bounded.
func (r *Resolver) gc(now float64) {
	for k, e := range r.cache {
		if e.expires <= now {
			delete(r.cache, k)
		}
	}
}

// newResolverPool mints n resolvers across sensors. A handful of
// sensors each contribute several resolvers, as SIE contributors do;
// qminCount resolvers (a university lab, per §3.6) minimize QNAMEs.
func newResolverPool(rng *rand.Rand, n, sensors, qminCount int) []*Resolver {
	if sensors < 1 {
		sensors = 1
	}
	out := make([]*Resolver, n)
	for i := range out {
		addr := netip.AddrFrom4([4]byte{
			byte(203 - i/200), byte(i / 250 % 250), byte(i % 250), byte(1 + i%200)})
		out[i] = newResolver(addr, uint32(1+i%sensors), i < qminCount)
		// Roughly a third of the pool is dual-stack and can speak
		// DNS-over-IPv6 to v6-capable authoritatives.
		if i%3 == 0 {
			a16 := [16]byte{0x20, 0x01, 0x0d, 0xb8, 0x00, 0x53}
			a16[14] = byte(i >> 8)
			a16[15] = byte(i)
			out[i].Addr6 = netip.AddrFrom16(a16)
		}
	}
	if len(out) == 0 {
		panic(fmt.Sprintf("simnet: resolver pool of %d", n))
	}
	return out
}
