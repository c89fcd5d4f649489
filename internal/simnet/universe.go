package simnet

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"sort"
	"strings"

	"dnsobservatory/internal/dnssec"
	"dnsobservatory/internal/dnswire"
	"dnsobservatory/internal/publicsuffix"
)

// SLD is one registered (effective second-level) domain with its zone
// configuration and hosting.
type SLD struct {
	Name    string // canonical, e.g. "example.com."
	Org     *Org
	NSNames []string  // NS record targets
	NS      []*Server // authoritative servers
	Weight  float64   // popularity mass (Zipf)

	ATTL   uint32 // TTL of A/AAAA answers
	NSTTL  uint32 // TTL of NS records
	NegTTL uint32 // SOA minimum: negative-caching TTL
	Serial uint32

	IPv6    bool // serves AAAA records
	Signed  bool // DNSSEC: responses carry RRSIG when DO is set
	FQDNs   []*FQDN
	fqdnCum []float64 // cumulative weights for sampling

	// NonConforming servers return a different TTL on every response
	// (Table 4's largest category).
	NonConforming bool

	// Key signs the zone when Signed; sigCache holds one RRSIG per
	// answer RRset so steady-state responses reuse signatures, as real
	// authoritatives serve precomputed ones.
	Key      *dnssec.Key
	sigCache map[string]dnswire.RR

	// Address base: FQDN i resolves to base+i.
	V4Base netip.Addr
	V6Base netip.Addr
}

// FQDN is one hostname under an SLD.
type FQDN struct {
	Name   string
	SLD    *SLD
	Weight float64
	// V6 overrides the SLD's IPv6 flag when set mid-run (the §5.3
	// enablement events); -1 inherit, 0 off, 1 on.
	V6Override int8
}

// HasV6 reports whether the name currently serves AAAA data.
func (f *FQDN) HasV6() bool {
	switch f.V6Override {
	case 0:
		return false
	case 1:
		return true
	}
	return f.SLD.IPv6
}

// Universe is the domain population.
type Universe struct {
	SLDs   []*SLD
	sldCum []float64 // cumulative popularity for sampling
	byName map[string]*SLD

	// PTRZones are reverse-DNS zones under in-addr.arpa.
	PTRZones []*SLD
	ptrCum   []float64

	Suffixes *publicsuffix.List
	rng      *rand.Rand
}

// Common hostname labels weighted toward www; the tail of per-SLD FQDNs
// gets generated labels.
var hostLabels = []string{"www", "api", "cdn", "img", "mail", "m", "app", "static", "edge", "login"}

// tldWeights drives which public suffix newly minted SLDs land under;
// com dominates, as in the observed DNS.
var tldWeights = []struct {
	suffix string
	w      float64
}{
	{"com", 0.48}, {"net", 0.09}, {"org", 0.06}, {"de", 0.04}, {"co.uk", 0.03},
	{"ru", 0.03}, {"nl", 0.02}, {"io", 0.02}, {"jp", 0.02}, {"fr", 0.02},
	{"it", 0.015}, {"pl", 0.015}, {"br", 0.01}, {"com.br", 0.01}, {"top", 0.01},
	{"xyz", 0.01}, {"info", 0.01}, {"cn", 0.01}, {"com.cn", 0.01}, {"org.il", 0.008},
	{"co.il", 0.008}, {"net.me", 0.006}, {"me", 0.006}, {"in", 0.01}, {"co.in", 0.008},
	{"au", 0.006}, {"com.au", 0.01}, {"se", 0.008}, {"ch", 0.008}, {"es", 0.008},
	{"ca", 0.008}, {"us", 0.006}, {"tv", 0.005}, {"cc", 0.005}, {"biz", 0.005},
	{"online", 0.004}, {"site", 0.004}, {"shop", 0.004}, {"app", 0.004}, {"dev", 0.004},
	{"kr", 0.005}, {"tw", 0.004}, {"vn", 0.004}, {"tr", 0.004}, {"mx", 0.004},
	{"ar", 0.003}, {"cl", 0.003}, {"za", 0.003}, {"co.za", 0.003}, {"ke", 0.002},
	{"co.ke", 0.002}, {"ng", 0.002}, {"eg", 0.002}, {"sa", 0.002}, {"ae", 0.002},
	{"th", 0.002}, {"co.th", 0.002}, {"my", 0.002}, {"sg", 0.002}, {"ph", 0.002},
	{"id", 0.003}, {"hk", 0.002}, {"com.hk", 0.002}, {"nz", 0.002}, {"co.nz", 0.002},
}

// ttlMenu is the classic TTL palette; weights skew short for CDNs.
var ttlMenu = []struct {
	ttl uint32
	w   float64
}{
	{30, 0.08}, {60, 0.16}, {120, 0.07}, {300, 0.28}, {600, 0.1},
	{900, 0.05}, {1800, 0.05}, {3600, 0.12}, {14400, 0.03}, {86400, 0.06},
}

func (u *Universe) pickTTL() uint32 {
	x := u.rng.Float64()
	var cum float64
	for _, t := range ttlMenu {
		cum += t.w
		if x < cum {
			return t.ttl
		}
	}
	return 300
}

func (u *Universe) pickTLD() string {
	x := u.rng.Float64()
	var cum float64
	for _, t := range tldWeights {
		cum += t.w
		if x < cum {
			return t.suffix
		}
	}
	return "com"
}

// newUniverse mints nSLD popular domains with Zipf(1.0, s≈1) popularity
// plus reverse-DNS zones, assigns hosting organizations per Table 1
// shares, and builds per-org server pools sized by the profile counts
// scaled by serverScale.
func newUniverse(rng *rand.Rand, inf *Infra, nSLD int, serverScale float64, v6Share float64) *Universe {
	u := &Universe{
		byName:   map[string]*SLD{},
		Suffixes: publicsuffix.Default,
		rng:      rng,
	}
	// Per-org server pools. Anycast orgs keep small pools regardless of
	// scale pressure from hosting share. Pools sort fastest-first so the
	// skewed draw concentrates popular zones on low-delay addresses —
	// the paper's Fig. 3b correlation between popularity and speed.
	pools := map[*Org][]*Server{}
	poolFor := func(o *Org) []*Server {
		if p, ok := pools[o]; ok {
			return p
		}
		n := int(float64(o.Servers) * serverScale)
		if n < 2 {
			n = 2
		}
		p := make([]*Server, n)
		for i := range p {
			p[i] = inf.NewServer(o, i)
		}
		sort.Slice(p, func(i, j int) bool { return p[i].BaseDelayMs < p[j].BaseDelayMs })
		pools[o] = p
		return p
	}

	zipf := func(rank int) float64 { return 1 / math.Pow(float64(rank+1), 1.0) }

	for i := 0; i < nSLD; i++ {
		tld := u.pickTLD()
		name := fmt.Sprintf("%s%d.%s.", sldSyllables(rng, i), i, tld)
		org := inf.PickHostingOrgRanked(i, nSLD)
		pool := poolFor(org)
		// IPv6 adoption correlates with popularity: the CDNs and cloud
		// providers behind the biggest domains enabled AAAA early, which
		// keeps the AAAA NoData share near the paper's 25 % (Table 2).
		// The boost is multiplicative so a v6Share of zero stays zero.
		v6p := v6Share
		switch {
		case i < nSLD/20:
			v6p = math.Min(0.9, v6Share*2.8)
		case i < nSLD/5:
			v6p = math.Min(0.75, v6Share*2.0)
		}
		sld := &SLD{
			Name:   name,
			Org:    org,
			Weight: zipf(i),
			ATTL:   u.pickTTL(),
			NSTTL:  86400,
			Serial: 2019010100 + uint32(i),
			IPv6:   rng.Float64() < v6p,
			Signed: rng.Float64() < 0.4,
			V4Base: netip.AddrFrom4([4]byte{byte(100 + i%80), byte(i / 250 % 250), byte(i % 250), 10}),
			V6Base: netip.MustParseAddr(fmt.Sprintf("2001:db8:%x::10", i%65536)),
		}
		// Negative-caching TTL: most zones keep it near the A TTL; a
		// minority slash it (the §5.2 pathology).
		switch {
		case rng.Float64() < 0.06:
			sld.NegTTL = 10 + uint32(rng.Intn(20)) // 10–30 s, pathological
		case rng.Float64() < 0.3:
			sld.NegTTL = 300
		default:
			sld.NegTTL = sld.ATTL
		}
		// 2–4 nameservers from the org pool; anycast orgs reuse few IPs.
		// The pool draw is heavily skewed toward its first entries: DNS
		// providers concentrate many customer zones on few addresses,
		// which is what produces the paper's "1K nameserver IPs handle
		// half the traffic" concentration (Fig. 2a).
		// Head domains additionally restrict themselves to the fastest
		// quarter of the provider pool — the most popular sites sit on
		// the best-provisioned addresses, producing the Fig. 3b
		// popularity/delay correlation.
		drawFrom := len(pool)
		if i < nSLD/10 && drawFrom > 4 {
			drawFrom /= 4
		}
		nns := 2 + rng.Intn(3)
		for j := 0; j < nns; j++ {
			srv := pool[skewedIndex(rng, drawFrom)]
			sld.NS = append(sld.NS, srv)
			sld.NSNames = append(sld.NSNames,
				fmt.Sprintf("ns%d.%s", j+1, name))
		}
		// FQDNs: a handful of hostnames, www-heavy, plus the apex.
		nf := 3 + rng.Intn(8)
		for j := 0; j < nf; j++ {
			var label string
			if j < len(hostLabels) {
				label = hostLabels[j]
			} else {
				label = fmt.Sprintf("h%d", j)
			}
			f := &FQDN{
				Name:       label + "." + name,
				SLD:        sld,
				Weight:     1 / math.Pow(float64(j+1), 1.3),
				V6Override: -1,
			}
			sld.FQDNs = append(sld.FQDNs, f)
		}
		sld.FQDNs = append(sld.FQDNs, &FQDN{Name: name, SLD: sld, Weight: 0.4, V6Override: -1})
		if sld.Signed {
			sld.initKey()
		}
		sld.buildCum()
		u.SLDs = append(u.SLDs, sld)
		u.byName[name] = sld
	}
	u.buildCum()
	u.buildPTRZones(inf)
	return u
}

// skewedIndex draws an index in [0,n) with mass concentrated near zero
// (P(idx < x) = (x/n)^(1/8)): DNS providers concentrate most customer
// zones on a handful of their addresses.
func skewedIndex(rng *rand.Rand, n int) int {
	u := rng.Float64()
	u4 := u * u * u * u
	idx := int(float64(n) * u4 * u4)
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// sldSyllables makes pronounceable-ish names deterministically.
func sldSyllables(rng *rand.Rand, i int) string {
	syl := []string{"ak", "bo", "cu", "de", "fi", "go", "ha", "in", "jo", "ka",
		"lu", "me", "no", "pa", "qi", "ra", "su", "ta", "ul", "vo", "wi", "xa", "yo", "zu"}
	var sb strings.Builder
	n := 2 + rng.Intn(2)
	for j := 0; j < n; j++ {
		sb.WriteString(syl[(i*7+j*13+rng.Intn(4))%len(syl)])
	}
	return sb.String()
}

// buildPTRZones creates reverse-DNS zones (one per /16 of popular
// address space) served by ISP-style tail infrastructure; reverse
// lookups are slower (≈2× forward, paper Table 2).
func (u *Universe) buildPTRZones(inf *Infra) {
	for i := 0; i < 40; i++ {
		org := inf.Tail[(i*3)%len(inf.Tail)]
		srv := inf.NewServer(org, i)
		srv.BaseDelayMs *= 2
		name := fmt.Sprintf("%d.%d.in-addr.arpa.", i%250, 100+i%80)
		z := &SLD{
			Name:   name,
			Org:    org,
			Weight: 1 / float64(i+1),
			ATTL:   86400,
			NSTTL:  86400,
			NegTTL: 3600,
			NS:     []*Server{srv},
			NSNames: []string{
				fmt.Sprintf("ns1.isp%d.net.", i)},
		}
		u.PTRZones = append(u.PTRZones, z)
	}
}

// initKey derives the zone's deterministic Ed25519 signing key.
func (s *SLD) initKey() {
	seed := sha256.Sum256([]byte("zsk:" + s.Name))
	key, err := dnssec.NewKey(s.Name, 256, seed[:])
	if err != nil {
		panic(err) // seed length is fixed; unreachable
	}
	s.Key = key
	s.sigCache = map[string]dnswire.RR{}
}

func (s *SLD) buildCum() {
	s.fqdnCum = cumWeights(len(s.FQDNs), func(i int) float64 { return s.FQDNs[i].Weight })
}

func (u *Universe) buildCum() {
	u.sldCum = cumWeights(len(u.SLDs), func(i int) float64 { return u.SLDs[i].Weight })
}

func cumWeights(n int, w func(int) float64) []float64 {
	cum := make([]float64, n)
	var sum float64
	for i := 0; i < n; i++ {
		sum += w(i)
		cum[i] = sum
	}
	return cum
}

// sampleCum draws an index from a cumulative weight array.
func sampleCum(rng *rand.Rand, cum []float64) int {
	if len(cum) == 0 {
		return -1
	}
	x := rng.Float64() * cum[len(cum)-1]
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// PickSLD draws a domain by popularity.
func (u *Universe) PickSLD() *SLD {
	return u.SLDs[sampleCum(u.rng, u.sldCum)]
}

// PickFQDN draws a hostname within the SLD by popularity.
func (s *SLD) PickFQDN(rng *rand.Rand) *FQDN {
	return s.FQDNs[sampleCum(rng, s.fqdnCum)]
}

// Lookup finds an SLD by canonical name.
func (u *Universe) Lookup(name string) *SLD { return u.byName[name] }

// AddrFor returns the address FQDN f resolves to.
func (s *SLD) AddrFor(f *FQDN, v6 bool) netip.Addr {
	idx := 0
	for i, g := range s.FQDNs {
		if g == f {
			idx = i
			break
		}
	}
	if v6 {
		b := s.V6Base.As16()
		b[15] += byte(idx)
		return netip.AddrFrom16(b)
	}
	b := s.V4Base.As4()
	b[3] += byte(idx)
	return netip.AddrFrom4(b)
}
