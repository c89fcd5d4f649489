package detect

import (
	"math"

	"dnsobservatory/internal/bloom"
	"dnsobservatory/internal/dnswire"
	"dnsobservatory/internal/metrics"
	"dnsobservatory/internal/publicsuffix"
	"dnsobservatory/internal/sie"
	"dnsobservatory/internal/spacesaving"
	"dnsobservatory/internal/tsv"
)

// Aggregation names the detection snapshots are stored and served under.
const (
	AggESLD = "detect_esld" // information-content heavy hitters
	AggNOD  = "detect_nod"  // newly-observed domains
)

// Config sizes a Detector. The zero value is not usable; start from
// DefaultConfig. Byte-identical serial/sharded snapshots require the
// two deployments to share an identical Config.
type Config struct {
	// K is the number of rows kept in the merged information-content
	// snapshot; NODK the same for the newly-observed-domain snapshot.
	K    int
	NODK int

	// Capacity is the total number of eSLDs tracked by the
	// information-content cache, split evenly across partitions.
	Capacity int

	// HalfLifeSec is the decay half-life of the per-eSLD rate estimate.
	// 300 s spans several 60 s windows so that low-and-slow sources
	// accumulate rate instead of decaying to zero between queries.
	HalfLifeSec float64

	// Partitions fixes the internal partition count. It must be
	// identical across deployments for byte-identical merges; it is NOT
	// the worker count (workers own whole partitions).
	Partitions int

	// AdmitterN / AdmitterFP size the per-partition Bloom admission
	// filter guarding information-content cache evictions. The filter
	// resets every window, mirroring the volume aggregations.
	AdmitterN  int
	AdmitterFP float64

	// NODHorizonSec is how long an eSLD must stay unobserved before it
	// counts as newly observed again. NODBuckets filters rotate across
	// the horizon, so forgetting happens within one bucket width of the
	// nominal horizon.
	NODHorizonSec float64
	NODBuckets    int

	// NODCapacity / NODFP size each rotating seen-set bucket:
	// NODCapacity is the expected distinct eSLDs per horizon across the
	// whole stream (split across partitions).
	NODCapacity int
	NODFP       float64

	// NODMaxPerWindow caps first-seen rows recorded per partition per
	// window; the remainder is counted as overflow (and still enters
	// the seen-set, so it is not re-reported later).
	NODMaxPerWindow int

	// Suffixes is the public-suffix list for eSLD extraction; nil means
	// publicsuffix.Default.
	Suffixes *publicsuffix.List

	// Metrics receives the dnsobs_detect_* families; nil keeps the
	// counters standalone (tests, library use).
	Metrics *metrics.Registry
}

// DefaultConfig returns production-shaped detection sizing.
func DefaultConfig() Config {
	return Config{
		K:               64,
		NODK:            128,
		Capacity:        2048,
		HalfLifeSec:     300,
		Partitions:      16,
		AdmitterN:       1 << 16,
		AdmitterFP:      0.01,
		NODHorizonSec:   3600,
		NODBuckets:      4,
		NODCapacity:     1 << 16,
		NODFP:           0.001,
		NODMaxPerWindow: 512,
	}
}

// withDefaults fills unset fields so a partially specified Config
// (tests often set only what they exercise) stays safe.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.K <= 0 {
		c.K = d.K
	}
	if c.NODK <= 0 {
		c.NODK = d.NODK
	}
	if c.Capacity <= 0 {
		c.Capacity = d.Capacity
	}
	if c.HalfLifeSec <= 0 {
		c.HalfLifeSec = d.HalfLifeSec
	}
	if c.Partitions <= 0 {
		c.Partitions = d.Partitions
	}
	if c.AdmitterN <= 0 {
		c.AdmitterN = d.AdmitterN
	}
	if c.AdmitterFP <= 0 {
		c.AdmitterFP = d.AdmitterFP
	}
	if c.NODHorizonSec <= 0 {
		c.NODHorizonSec = d.NODHorizonSec
	}
	if c.NODBuckets <= 0 {
		c.NODBuckets = d.NODBuckets
	}
	if c.NODCapacity <= 0 {
		c.NODCapacity = d.NODCapacity
	}
	if c.NODFP <= 0 {
		c.NODFP = d.NODFP
	}
	if c.NODMaxPerWindow <= 0 {
		c.NODMaxPerWindow = d.NODMaxPerWindow
	}
	if c.Suffixes == nil {
		c.Suffixes = publicsuffix.Default
	}
	return c
}

// Snapshot schemas. Score sits in column 0 so the canonical snapshot
// ordering (descending first column) ranks by information content, and
// MergeWindow's cut keeps the strongest rows.
var (
	icColumns = []string{"score", "hits", "rate", "entropy", "sublen"}
	icKinds   = []tsv.Kind{tsv.Gauge, tsv.Counter, tsv.Gauge, tsv.Gauge, tsv.Gauge}

	nodColumns = []string{"hits", "first_seen"}
	nodKinds   = []tsv.Kind{tsv.Counter, tsv.Gauge}
)

// Detector is the streaming detection state for one pipeline. See the
// package comment for the concurrency and determinism contract.
type Detector struct {
	cfg   Config
	parts []*partition
	m     *detectMetrics
}

// New builds a Detector from cfg (missing fields defaulted).
func New(cfg Config) *Detector {
	cfg = cfg.withDefaults()
	d := &Detector{cfg: cfg, m: newDetectMetrics(cfg.Metrics)}
	p := cfg.Partitions
	perCap := (cfg.Capacity + p - 1) / p
	admN := (cfg.AdmitterN + p - 1) / p
	nodN := (cfg.NODCapacity + p - 1) / p
	d.parts = make([]*partition, p)
	for i := range d.parts {
		d.parts[i] = newPartition(i, perCap, admN, nodN, cfg)
	}
	return d
}

// Partitions returns the fixed partition count, for engines assigning
// partition ownership to workers.
func (d *Detector) Partitions() int { return len(d.parts) }

// hashString routes an eSLD to its partition: FNV-1a, the same hash the
// sharded engine uses for aggregation keys.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Observe is the serial ingest path: extract the eSLD, route it to its
// partition, and fold the observation into both detectors. now is the
// engine's window-clamped stream time.
func (d *Detector) Observe(sum *sie.Summary, now float64) {
	d.parts[0].offered++
	esld, sub, ok := d.esldSub(sum)
	if !ok {
		return // bare root — no eSLD to track
	}
	part := hashString(esld) % uint64(len(d.parts))
	observe(d.parts[part], esld, sub, now)
}

// esldSub splits sum's query name into its eSLD key and the subdomain
// prefix (separating dot included). The memo PrecomputeHashes leaves on
// the summary makes the common case free; hand-built summaries fall
// back to the public-suffix walk. Either way the eSLD is a
// suffix-substring of the name it was derived from, so the subdomain is
// the prefix it leaves behind.
func (d *Detector) esldSub(sum *sie.Summary) (esld, sub string, ok bool) {
	esld, ok = sum.ESLD()
	if ok {
		if len(esld) <= 1 {
			return "", "", false
		}
		return esld, sum.QName[:len(sum.QName)-len(esld)], true
	}
	cq := dnswire.Canonical(sum.QName)
	esld = d.cfg.Suffixes.ESLD(cq)
	if len(esld) <= 1 {
		return "", "", false
	}
	return esld, cq[:len(cq)-len(esld)], true
}

// RecordOffered counts one pre-filter transaction on the sharded path,
// where the detect slot may be empty (no eSLD) but the stream volume
// must still be accounted. Only the worker owning partition 0 calls it.
func (d *Detector) RecordOffered() { d.parts[0].offered++ }

// AppendKey extracts sum's eSLD onto buf and returns the extended
// buffer, the owning partition, and whether an eSLD exists. The sharded
// dispatcher calls it when staging a batch slot; the key bytes are a
// view into the batch's reusable buffer.
func (d *Detector) AppendKey(sum *sie.Summary, buf []byte) ([]byte, int, bool) {
	esld, _, ok := d.esldSub(sum)
	if !ok {
		return buf, 0, false
	}
	part := int(hashString(esld) % uint64(len(d.parts)))
	return append(buf, esld...), part, true
}

// ObservePartition is the sharded ingest path: the worker owning part
// folds one observation staged by AppendKey. key must be the eSLD bytes
// AppendKey produced for sum.
func (d *Detector) ObservePartition(part int, key []byte, sum *sie.Summary, now float64) {
	// The subdomain is what AppendKey's key leaves of the name, split the
	// way AppendKey split it.
	_, sub, _ := d.esldSub(sum)
	observe(d.parts[part], key, sub, now)
}

// partition is the single-owner detection state for one key-hash slice
// of the eSLD space. All fields are plain (non-atomic): exactly one
// goroutine touches a partition at any time.
type partition struct {
	id       int
	offered  uint64 // pre-filter transactions; maintained on partition 0 only
	observed uint64 // eSLD observations folded into this partition

	ic       *spacesaving.Cache
	admitter *bloom.Filter
	free     []*icStats // recycled feature state from evicted entries

	nod nodState

	// Window bookmarks: cumulative counters at the last CollectWindow,
	// so window deltas come from subtraction, not separate counters.
	lastOffered, lastObserved  uint64
	lastDropped, lastEvictions uint64
	lastFirstSeen, lastSeen    uint64
	lastOverflow               uint64
}

// Seed bases for the deterministic Bloom hashing; the partition index
// is folded in so no two filters share a hash function.
const (
	icSeedBase  = 0xd15ea5e0c0ffee00
	nodSeedBase = 0x00ddba11beefcafe
)

func newPartition(id, capacity, admN, nodN int, cfg Config) *partition {
	p := &partition{id: id}
	p.admitter = bloom.New(admN, cfg.AdmitterFP, icSeedBase+uint64(id))
	p.ic = spacesaving.New(capacity, cfg.HalfLifeSec, p.admitter)
	p.ic.OnEvictState = func(st any) {
		s := st.(*icStats)
		*s = icStats{}
		p.free = append(p.free, s)
	}
	b := cfg.NODBuckets
	p.nod = nodState{
		buckets:   make([]*bloom.Filter, b),
		curIdx:    -1,
		bucketSec: cfg.NODHorizonSec / float64(b),
		maxWin:    cfg.NODMaxPerWindow,
		win:       make(map[string]*nodRow),
	}
	for i := range p.nod.buckets {
		// One seed per partition is enough: the buckets never compare
		// bit patterns with each other, only with their own inserts.
		p.nod.buckets[i] = bloom.New(nodN, cfg.NODFP, nodSeedBase+uint64(id))
	}
	return p
}

// observe folds one observation of the eSLD key, in either view, into
// both detectors: the serial path hands the string it extracted, the
// sharded path the bytes its dispatcher staged, and bloom and
// spacesaving hash and index the two alike.
func observe[K ~string | ~[]byte](p *partition, key K, sub string, now float64) {
	p.observed++
	st := p.foldIC(spacesaving.Observe(p.ic, key, now), sub)
	n := &p.nod
	n.rollTo(now)
	// Fast path for tracked repeat traffic: the entry remembers the last
	// bucket it was inserted into, so while the bucket has not rotated
	// the observation is seen-by-construction and the insert would only
	// set already-set bits. No filter work, no digest.
	isNew := false
	if st == nil || st.nodBucket != n.curIdx+1 {
		// All buckets share one seed and sizing, so the key digests once
		// and every bucket probes and inserts with it.
		isNew = n.probe(bloom.Sum64(n.buckets[0], key))
		if st != nil {
			st.nodBucket = n.curIdx + 1
		}
	}
	account(n, isNew, key, now)
}

// probe folds one observation digest into the seen-set and reports
// whether the key is newly observed. Repeat traffic — the hot path —
// lands in the current bucket, whose bits are already set, so the
// insert is skipped (setting set bits is a no-op) and the whole
// observation costs one membership test.
func (n *nodState) probe(h uint64) (isNew bool) {
	cur := n.buckets[n.cur]
	if cur.ContainsHash(h) {
		return false
	}
	isNew = true
	for i, b := range n.buckets {
		if i != n.cur && b.ContainsHash(h) {
			isNew = false
			break
		}
	}
	cur.AddHash(h)
	return isNew
}

// icStats is the per-eSLD feature state hanging off a Space-Saving
// entry: a 39-class character histogram over subdomain bytes (26
// letters case-folded + 10 digits + '-' + '_' + other; dots are label
// separators, not content, and are skipped).
type icStats struct {
	hist       [39]uint32
	chars      uint64 // subdomain bytes observed (dots excluded)
	samples    uint64 // observations folded in
	windowHits uint64 // observations this window; reset by CollectWindow
	nodBucket  int64  // 1 + absolute NOD bucket index last inserted into; 0 = none
}

func (p *partition) foldIC(e *spacesaving.Entry, sub string) *icStats {
	if e == nil {
		return nil // not admitted past the Bloom filter
	}
	st, _ := e.State.(*icStats)
	if st == nil {
		if n := len(p.free); n > 0 {
			st = p.free[n-1]
			p.free = p.free[:n-1]
		} else {
			st = new(icStats)
		}
		e.State = st
	}
	st.samples++
	st.windowHits++
	for i := 0; i < len(sub); i++ {
		c := sub[i]
		var cls int
		switch {
		case c >= 'a' && c <= 'z':
			cls = int(c - 'a')
		case c >= '0' && c <= '9':
			cls = 26 + int(c-'0')
		case c == '.':
			continue
		case c == '-':
			cls = 36
		case c == '_':
			cls = 37
		case c >= 'A' && c <= 'Z':
			cls = int(c - 'A')
		default:
			cls = 38
		}
		st.hist[cls]++
		st.chars++
	}
	return st
}

// entropyOf is the Shannon entropy (bits per character) of the
// accumulated class histogram.
func entropyOf(hist *[39]uint32) float64 {
	var total uint64
	for _, c := range hist {
		total += uint64(c)
	}
	if total == 0 {
		return 0
	}
	inv := 1 / float64(total)
	var h float64
	for _, c := range hist {
		if c > 0 {
			p := float64(c) * inv
			h -= p * math.Log2(p)
		}
	}
	return h
}

// nodRow is one newly-observed eSLD recorded this window.
type nodRow struct {
	hits      uint64  // observations since first seen, within this window
	firstSeen float64 // stream time of the first sighting
}

// nodState is the rotating seen-set. Buckets form a ring over absolute
// bucket indexes floor(now / bucketSec); stepping forward resets each
// bucket stepped into, so a key last added at time t is forgotten
// between horizon−bucketSec and horizon after t.
type nodState struct {
	buckets   []*bloom.Filter
	cur       int   // ring position of the current bucket
	curIdx    int64 // absolute index of the current bucket; -1 = unset
	bucketSec float64
	maxWin    int
	win       map[string]*nodRow

	firstSeen, seen, overflow uint64
}

func (n *nodState) rollTo(now float64) {
	idx := int64(math.Floor(now / n.bucketSec))
	if n.curIdx < 0 {
		n.curIdx = idx
		return
	}
	if idx <= n.curIdx {
		return // clamped or stale timestamps never roll backwards
	}
	steps := idx - n.curIdx
	n.curIdx = idx
	if steps >= int64(len(n.buckets)) {
		// The whole horizon elapsed: every bucket is stale.
		for _, b := range n.buckets {
			b.Reset()
		}
		n.cur = 0
		return
	}
	for ; steps > 0; steps-- {
		n.cur = (n.cur + 1) % len(n.buckets)
		n.buckets[n.cur].Reset()
	}
}

// account books one observation: a first-seen row for a new key while
// the window has room for one (a byte view is copied there, and only
// there), and a hit on the key's row, if this window has one, otherwise.
func account[K ~string | ~[]byte](n *nodState, isNew bool, key K, now float64) {
	if isNew {
		if len(n.win) < n.maxWin {
			n.firstSeen++
			n.win[string(key)] = &nodRow{hits: 1, firstSeen: now}
		} else {
			n.overflow++
		}
		return
	}
	n.seen++
	if r, ok := n.win[string(key)]; ok {
		r.hits++
	}
}
