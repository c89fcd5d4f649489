package features

import (
	"dnsobservatory/internal/dnswire"
	"dnsobservatory/internal/hll"
	"dnsobservatory/internal/publicsuffix"
	"dnsobservatory/internal/sie"
	"dnsobservatory/internal/sketch"
)

// Config sizes the probabilistic structures of a Set.
type Config struct {
	// HLLPrecision is the register exponent for cardinality estimates;
	// 2^p bytes per estimator. 10 keeps per-object state near 8 kB.
	HLLPrecision uint8
	// DelayMaxMs / SizeMax bound the quartile histograms.
	DelayMaxMs float64
	SizeMax    float64
	// TTLTracked caps distinct TTL values tracked per object (at most
	// sketch.MaxTracked).
	TTLTracked int
	// Suffixes drives eTLD/eSLD extraction; nil uses the embedded list.
	Suffixes *publicsuffix.List
}

// DefaultConfig is the Observatory's standard sizing.
func DefaultConfig() Config {
	return Config{
		HLLPrecision: 10,
		DelayMaxMs:   60_000,
		SizeMax:      65_536,
		TTLTracked:   32,
		Suffixes:     publicsuffix.Default,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.HLLPrecision == 0 {
		c.HLLPrecision = d.HLLPrecision
	}
	if c.DelayMaxMs == 0 {
		c.DelayMaxMs = d.DelayMaxMs
	}
	if c.SizeMax == 0 {
		c.SizeMax = d.SizeMax
	}
	if c.TTLTracked == 0 {
		c.TTLTracked = d.TTLTracked
	}
	if c.Suffixes == nil {
		c.Suffixes = d.Suffixes
	}
	return c
}

// Set accumulates the traffic features of one DNS object.
type Set struct {
	cfg Config

	// Plain counters.
	Hits   uint64 // all transactions
	Unans  uint64 // unanswered queries
	OK     uint64 // NoError responses
	NXD    uint64 // NXDOMAIN
	RFS    uint64 // Refused
	Fail   uint64 // ServFail
	OKAns  uint64 // NoError with non-empty ANSWER
	OKNS   uint64 // NoError with NS records in AUTHORITY
	OKAdd  uint64 // NoError with non-empty ADDITIONAL (minus OPT)
	OKNil  uint64 // NoError with neither answer nor delegation (NoData)
	OK6    uint64 // AAAA queries with NoError
	OK6Nil uint64 // AAAA queries with NoData
	OKSec  uint64 // DNSSEC-signed responses (DO + data + RRSIG)
	TCP    uint64 // transactions over TCP/53
	Trunc  uint64 // truncated (TC) responses forcing TCP retries

	// Averages (sum; divide by the observation count).
	qdotsSum float64
	lvlSum   float64 // records in ANSWER per response
	nslvlSum float64 // NS records in AUTHORITY per response
	answered uint64

	// Cardinality estimates.
	SrvIPs  *hll.Sketch // nameserver IPs
	SrcIPs  *hll.Sketch // resolver IPs
	Sources *hll.Sketch // contributing sensors
	QNamesA *hll.Sketch // distinct QNAMEs, all queries
	QNames  *hll.Sketch // distinct QNAMEs with NoError responses
	TLDs    *hll.Sketch // TLDs in NoError responses
	ESLDs   *hll.Sketch // effective SLDs in NoError responses
	QTypes  *hll.Sketch // distinct QTYPEs
	IP4s    *hll.Sketch // distinct IPv4 addresses in answers
	IP6s    *hll.Sketch // distinct IPv6 addresses in answers

	// Distributions.
	TTL    *sketch.TopValues // ANSWER record TTLs
	NSTTL  *sketch.TopValues // AUTHORITY NS TTLs
	NegTTL *sketch.TopValues // negative-caching TTLs from AUTHORITY SOAs
	Delays *sketch.Histogram // response delays [ms]
	Hops   *sketch.Histogram // inferred network hops
	Sizes  *sketch.Histogram // response sizes [B]
}

// slab is the single allocation behind a Set: the set and every sketch
// its pointer fields refer to. Only the histogram counts, whose length
// depends on the configuration, live in a second one.
type slab struct {
	set  Set
	hlls [10]hll.Sketch
	tops [3]sketch.TopValues
	hist [3]sketch.Histogram
}

// NewSet returns an empty feature set. It costs two allocations however
// many sketches a set has.
func NewSet(cfg Config) *Set {
	cfg = cfg.withDefaults()
	sl := new(slab)
	s := &sl.set
	s.cfg = cfg
	for i, dst := range [...]**hll.Sketch{&s.SrvIPs, &s.SrcIPs, &s.Sources, &s.QNamesA, &s.QNames,
		&s.TLDs, &s.ESLDs, &s.QTypes, &s.IP4s, &s.IP6s} {
		if err := sl.hlls[i].Init(cfg.HLLPrecision); err != nil {
			panic(err) // static configuration, as hll.MustNew
		}
		*dst = &sl.hlls[i]
	}
	for i, dst := range [...]**sketch.TopValues{&s.TTL, &s.NSTTL, &s.NegTTL} {
		sl.tops[i].Init(cfg.TTLTracked)
		*dst = &sl.tops[i]
	}
	sketch.InitHistograms(sl.hist[:], 1.15, cfg.DelayMaxMs, 64, cfg.SizeMax)
	s.Delays, s.Hops, s.Sizes = &sl.hist[0], &sl.hist[1], &sl.hist[2]
	return s
}

// Prepare memoizes on sum what every set of s's configuration would
// otherwise work out for itself in Observe: the field hashes
// (sie.Summary.PrecomputeHashes) and, as hints, the histogram buckets of
// the delay, the hops and the size. It writes sum and only reads s — its
// configuration and the bucket bounds, which never change — so an engine
// calls it once per transaction, on any one set it keeps for the
// purpose, before the summary is shared. A summary whose hashes are
// ready is left alone: it is read-only from then on, to Prepare as to
// every Observe.
func (s *Set) Prepare(sum *sie.Summary) {
	if sum.HashesReady {
		return
	}
	sum.PrecomputeHashes(s.cfg.Suffixes)
	if sum.Answered {
		sum.DelayBucket = uint16(s.Delays.Bucket(sum.DelayMs))
		sum.HopsBucket = uint16(s.Hops.Bucket(float64(sum.Hops)))
		sum.SizeBucket = uint16(s.Sizes.Bucket(float64(sum.RespSize)))
	}
}

// Observe folds one transaction summary into the set. It consumes what
// Prepare memoizes — hashed and bucketed once per transaction, shared by
// every aggregation × sketch — preparing sum itself when its hashes are
// not ready (which mutates sum: engines that fan one summary out to
// concurrent Observers must prepare it first). Hashes are trusted once
// marked ready; bucket hints never are (sketch.Histogram.ObserveAt).
func (s *Set) Observe(sum *sie.Summary) {
	if !sum.HashesReady {
		s.Prepare(sum)
	}
	s.Hits++
	s.SrvIPs.AddHash(sum.NameserverHash)
	s.SrcIPs.AddHash(sum.ResolverHash)
	s.Sources.AddHash(sum.SensorHash)
	s.QNamesA.AddHash(sum.QNameHash)
	s.QTypes.AddHash(sum.QTypeHash)
	s.qdotsSum += float64(sum.QDots)
	if sum.TCP {
		s.TCP++
	}
	if sum.Trunc {
		s.Trunc++
	}

	if !sum.Answered {
		s.Unans++
		return
	}
	s.answered++
	s.lvlSum += float64(sum.AnswerCount)
	s.nslvlSum += float64(sum.AuthorityNS)
	s.Delays.ObserveAt(sum.DelayMs, int(sum.DelayBucket))
	s.Hops.ObserveAt(float64(sum.Hops), int(sum.HopsBucket))
	s.Sizes.ObserveAt(float64(sum.RespSize), int(sum.SizeBucket))

	switch sum.RCode {
	case dnswire.RCodeNoError:
		s.OK++
	case dnswire.RCodeNXDomain:
		s.NXD++
	case dnswire.RCodeRefused:
		s.RFS++
	case dnswire.RCodeServFail:
		s.Fail++
	}
	if sum.RCode != dnswire.RCodeNoError {
		return
	}

	if sum.HasAnswerData {
		s.OKAns++
	}
	if sum.AuthorityNS > 0 {
		s.OKNS++
	}
	if sum.HasAdditional {
		s.OKAdd++
	}
	nodata := !sum.HasAnswerData && sum.AuthorityNS == 0
	if nodata {
		s.OKNil++
	}
	if sum.QType == dnswire.TypeAAAA {
		s.OK6++
		if nodata {
			s.OK6Nil++
		}
	}
	if sum.DNSSECOK && sum.HasRRSIG && (sum.HasAnswerData || sum.AuthorityNS > 0) {
		s.OKSec++
	}

	s.QNames.AddHash(sum.QNameHash)
	s.TLDs.AddHash(sum.TLDHash)
	s.ESLDs.AddHash(sum.ESLDHash)
	for _, h := range sum.V4Hashes {
		s.IP4s.AddHash(h)
	}
	for _, h := range sum.V6Hashes {
		s.IP6s.AddHash(h)
	}
	for _, ttl := range sum.AnswerTTLs {
		s.TTL.Observe(ttl)
	}
	for _, ttl := range sum.NSTTLs {
		s.NSTTL.Observe(ttl)
	}
	if sum.HasSOA {
		s.NegTTL.Observe(sum.SOAMinimum)
	}
}

// QDots returns the mean number of QNAME labels.
func (s *Set) QDots() float64 {
	if s.Hits == 0 {
		return 0
	}
	return s.qdotsSum / float64(s.Hits)
}

// Lvl returns the mean ANSWER record count per answered transaction.
func (s *Set) Lvl() float64 {
	if s.answered == 0 {
		return 0
	}
	return s.lvlSum / float64(s.answered)
}

// NSLvl returns the mean AUTHORITY NS count per answered transaction.
func (s *Set) NSLvl() float64 {
	if s.answered == 0 {
		return 0
	}
	return s.nslvlSum / float64(s.answered)
}

// Answered returns the number of answered transactions.
func (s *Set) Answered() uint64 { return s.answered }

// Reset clears all statistics for the next time window.
func (s *Set) Reset() {
	cfg := s.cfg
	*s = Set{
		cfg:     cfg,
		SrvIPs:  s.SrvIPs,
		SrcIPs:  s.SrcIPs,
		Sources: s.Sources,
		QNamesA: s.QNamesA,
		QNames:  s.QNames,
		TLDs:    s.TLDs,
		ESLDs:   s.ESLDs,
		QTypes:  s.QTypes,
		IP4s:    s.IP4s,
		IP6s:    s.IP6s,
		TTL:     s.TTL,
		NSTTL:   s.NSTTL,
		NegTTL:  s.NegTTL,
		Delays:  s.Delays,
		Hops:    s.Hops,
		Sizes:   s.Sizes,
	}
	s.SrvIPs.Reset()
	s.SrcIPs.Reset()
	s.Sources.Reset()
	s.QNamesA.Reset()
	s.QNames.Reset()
	s.TLDs.Reset()
	s.ESLDs.Reset()
	s.QTypes.Reset()
	s.IP4s.Reset()
	s.IP6s.Reset()
	s.TTL.Reset()
	s.NSTTL.Reset()
	s.NegTTL.Reset()
	s.Delays.Reset()
	s.Hops.Reset()
	s.Sizes.Reset()
}
