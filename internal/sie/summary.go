package sie

import (
	"errors"
	"net/netip"

	"dnsobservatory/internal/dnswire"
	"dnsobservatory/internal/hll"
	"dnsobservatory/internal/ipwire"
	"dnsobservatory/internal/publicsuffix"
)

// Summary is the "line of text" the preprocessing stage keeps per
// transaction (paper §2.1): only the details that end up aggregated in
// traffic statistics. Possibly sensitive EDNS0 data (cookies, client
// subnet) is dropped here, and timestamps survive only as the computed
// response delay — the privacy layers of §2.5.
type Summary struct {
	Resolver   netip.Addr // recursive resolver IP (srcip)
	Nameserver netip.Addr // authoritative nameserver IP (srvip)
	SensorID   uint32
	Workload   uint32 // generator class tag (simnet ground truth); 0 unlabeled

	// ClientTransport mirrors Transaction.ClientTransport: the transport
	// of the client→resolver leg (Transport* constants); 0 = UDP/53.
	ClientTransport uint32

	// Seq is the number the producer gives the transaction, after
	// Summarize (which leaves it 0); CopyFrom carries it. The engines
	// read it only where a window begins, to tell which transactions a
	// window holds (observatory FirstOfWindow), so numbers mean something
	// only within one producer's sequence: dnsobs numbers each
	// transaction by its index in the input, which is what a -wal
	// collector's Checkpoint counts.
	Seq uint64

	QName string
	QType dnswire.Type
	QDots int // labels in QNAME

	Answered bool
	DelayMs  float64 // server response delay
	Hops     int     // inferred network hops, from the response IP TTL
	RespSize int     // response packet size in bytes (IP layer)
	TCP      bool    // transaction ran over TCP/53
	Trunc    bool    // response had the TC bit set (UDP size exceeded)

	RCode         dnswire.RCode
	AA            bool // authoritative answer
	HasAnswerData bool // non-empty ANSWER section (ok_ans)
	AuthorityNS   int  // NS records in AUTHORITY (ok_ns when > 0)
	HasAdditional bool // non-empty ADDITIONAL, skipping OPT (ok_add)
	AnswerCount   int  // records in ANSWER (lvl)
	DNSSECOK      bool // query had EDNS0 DO set
	HasRRSIG      bool // RRSIG present in answer/authority sections

	V4Addrs []netip.Addr // A records in NoError answers
	V6Addrs []netip.Addr // AAAA records in NoError answers

	AnswerTTLs []uint32 // TTLs of ANSWER records
	NSTTLs     []uint32 // TTLs of AUTHORITY NS records
	NSNames    []string // NS targets in AUTHORITY (infrastructure changes)

	SOAMinimum uint32 // negative-caching TTL from an AUTHORITY SOA
	HasSOA     bool

	// Memoized textual forms. The endpoint texts are keys of several
	// aggregations, so the Summarizer fills both (interned, like QName
	// and NSNames: a text it made recently is handed out again) and the
	// accessors below fall back to formatting on demand for summaries
	// built by hand. The answer addresses are only ever hashed
	// (PrecomputeHashes, from a stack buffer), so the Summarizer leaves
	// V4Strs/V6Strs empty; a summary built by hand may fill them. Empty
	// string / short slice means "not memoized".
	ResolverStr   string
	NameserverStr string
	V4Strs        []string
	V6Strs        []string

	// Memoized 64-bit hll hashes of the fields every feature set
	// downstream counts cardinalities over. Eight aggregations × ten
	// sketches would otherwise re-hash the same values dozens of times
	// per transaction; PrecomputeHashes fills these once and HashesReady
	// marks them valid. TLDHash/ESLDHash are only computed for NoError
	// answers (the only case the feature extractor reads them).
	// Summarize fills QNameHash, ResolverHash and NameserverHash already —
	// it hashes those texts to intern them — and PrecomputeHashes hashes
	// them again only for a summary built by hand; so whoever edits QName
	// or an endpoint of a summarized Summary sets its hash too.
	QNameHash      uint64
	TLDHash        uint64
	ESLDHash       uint64
	ResolverHash   uint64
	NameserverHash uint64
	SensorHash     uint64 // of SensorID
	QTypeHash      uint64 // of QType
	V4Hashes       []uint64
	V6Hashes       []uint64
	HashesReady    bool
	textsHashed    bool // Summarize set QNameHash, ResolverHash, NameserverHash

	// DelayBucket, HopsBucket and SizeBucket are hints: the histogram
	// buckets DelayMs, Hops and RespSize count into, as whoever prepared
	// the summary found them (features.Set.Prepare). A histogram checks a
	// hint before it takes it, so a summary nobody prepared, or one
	// prepared for histograms of another shape, folds as exactly.
	DelayBucket, HopsBucket, SizeBucket uint16

	// ESLDOff and ETLDOff memoize the public-suffix walk the same way:
	// 1 + the start offset of the eSLD (eTLD) suffix-substring within
	// QName, or 0 when not memoized. The esld and etld aggregations and
	// the detection layer key on them, so the walk happens once per
	// transaction instead of once per consumer.
	ESLDOff uint16
	ETLDOff uint16
}

// ESLD returns the memoized eSLD view of QName. ok is false until
// PrecomputeHashes has run; callers then walk the suffix list
// themselves (without writing the memo — the summary may already be
// shared with concurrent readers).
func (sum *Summary) ESLD() (string, bool) {
	if sum.ESLDOff == 0 {
		return "", false
	}
	return sum.QName[sum.ESLDOff-1:], true
}

// ETLD returns the memoized eTLD view of QName, under ESLD's contract.
func (sum *Summary) ETLD() (string, bool) {
	if sum.ETLDOff == 0 {
		return "", false
	}
	return sum.QName[sum.ETLDOff-1:], true
}

// suffixOff returns the memo (1 + start offset) of suffix as a view of
// qname, or 0 when it is not one. Only a literal suffix view is
// memoized: the list canonicalizes internally, so a non-canonical QName
// yields a string the offset cannot express.
func suffixOff(qname, suffix string) uint16 {
	n := len(qname) - len(suffix)
	if n < 0 || n >= 1<<16-1 || qname[n:] != suffix {
		return 0
	}
	return uint16(n) + 1
}

// PrecomputeHashes memoizes the hll hashes of every field the feature
// extractor counts, so each value is hashed once per transaction instead
// of once per aggregation × sketch, and the public-suffix walk of QName.
// suffixes drives eSLD extraction (nil uses the embedded default list)
// and must match the list the downstream feature sets are configured
// with. Engines that fan one summary out to concurrent readers must
// call this (features.Set.Prepare does) before sharing it; after it
// returns the summary's hash fields are frozen.
func (sum *Summary) PrecomputeHashes(suffixes *publicsuffix.List) {
	if sum.HashesReady {
		return
	}
	if suffixes == nil {
		suffixes = publicsuffix.Default
	}
	if !sum.textsHashed {
		sum.QNameHash = hll.HashString(sum.QName)
		sum.ResolverHash = hll.HashString(sum.ResolverText())
		sum.NameserverHash = hll.HashString(sum.NameserverText())
	}
	etld, esld := suffixes.Split(sum.QName)
	sum.ETLDOff, sum.ESLDOff = suffixOff(sum.QName, etld), suffixOff(sum.QName, esld)
	if sum.Answered && sum.RCode == dnswire.RCodeNoError {
		sum.TLDHash = hll.HashString(dnswire.TLD(sum.QName))
		sum.ESLDHash = hll.HashString(esld)
	}
	sum.SensorHash = hll.HashUint64(uint64(sum.SensorID))
	sum.QTypeHash = hll.HashUint64(uint64(sum.QType))
	sum.V4Hashes = hashAddrs(sum.V4Hashes[:0], sum.V4Addrs, sum.V4Strs)
	sum.V6Hashes = hashAddrs(sum.V6Hashes[:0], sum.V6Addrs, sum.V6Strs)
	sum.HashesReady = true
}

// hashAddrs appends the hll hash of each address's text — what V4Text
// and V6Text return — to hashes. An address no memo covers is formatted
// into a stack buffer: the text is hashed and dropped, so it is never
// made a string.
func hashAddrs(hashes []uint64, addrs []netip.Addr, memo []string) []uint64 {
	var buf [64]byte
	for i, a := range addrs {
		switch {
		case i < len(memo):
			hashes = append(hashes, hll.HashString(memo[i]))
		case a.IsValid():
			hashes = append(hashes, hll.HashBytes(a.AppendTo(buf[:0])))
		default: // String says "invalid IP", AppendTo nothing
			hashes = append(hashes, hll.HashString(a.String()))
		}
	}
	return hashes
}

// ResolverText returns the resolver address as text, using the memoized
// form when present.
func (sum *Summary) ResolverText() string {
	if sum.ResolverStr != "" {
		return sum.ResolverStr
	}
	return sum.Resolver.String()
}

// NameserverText returns the nameserver address as text, using the
// memoized form when present.
func (sum *Summary) NameserverText() string {
	if sum.NameserverStr != "" {
		return sum.NameserverStr
	}
	return sum.Nameserver.String()
}

// V4Text returns V4Addrs[i] as text, memoized when available.
func (sum *Summary) V4Text(i int) string {
	if i < len(sum.V4Strs) {
		return sum.V4Strs[i]
	}
	return sum.V4Addrs[i].String()
}

// V6Text returns V6Addrs[i] as text, memoized when available.
func (sum *Summary) V6Text(i int) string {
	if i < len(sum.V6Strs) {
		return sum.V6Strs[i]
	}
	return sum.V6Addrs[i].String()
}

// Errors returned by the summarizer.
var (
	ErrNotDNSPort = errors.New("sie: transaction not on UDP/53")
	ErrIPMismatch = errors.New("sie: response addresses do not mirror query")
)

// Summarizer converts transactions to summaries. It walks each DNS
// payload in place (dnswire.Walk) instead of unpacking it, and the texts
// a summary stores — the QNAME, the NS targets, the resolver and
// nameserver addresses — are written into a stack buffer and interned:
// traffic is Zipf-popular, so a text the Summarizer made recently is
// handed out again, and only a text it has not seen lately becomes a
// new string. The zero value is ready to use; it must not be copied
// after first use, since copies would share the table.
type Summarizer struct {
	// KeepUnparsableResponses degrades a transaction with a malformed
	// response to an unanswered one instead of failing, matching a
	// tolerant production ingest path.
	KeepUnparsableResponses bool

	query    queryVisitor
	response responseVisitor
	texts    *textTable // allocated by the first Summarize
}

// textTable interns the texts of one Summarizer: direct-mapped, a slot
// per value of the low bits of a text's hll hash, holding the last text
// that hashed there. With 2¹⁴ slots (256 KB of string headers) the
// replay-serial benchmark runs at 1.4 allocations per transaction, where
// 2¹² gave 1.7 and 2¹⁶ gives 1.3 (DESIGN.md "The summarizer interns
// what repeats").
type textTable [1 << 14]string

// intern returns text as a string, the one the slot already holds when
// it is the same text, and the text's hll hash (hll.HashString of it).
func (t *textTable) intern(text []byte) (string, uint64) {
	h := hll.HashBytes(text)
	slot := &t[h%uint64(len(t))]
	if *slot != string(text) {
		*slot = string(text)
	}
	return *slot, h
}

// queryVisitor keeps what a summary takes from the query message: the
// first question and the EDNS0 DO bit of the first OPT record.
type queryVisitor struct {
	nameOff int // offset of the first QNAME; 0 when there is no question
	qtype   dnswire.Type
	opt, do bool
}

func (v *queryVisitor) Header(dnswire.Header) { *v = queryVisitor{} }

func (v *queryVisitor) Question(_ []byte, nameOff int, typ dnswire.Type, _ dnswire.Class) {
	if v.nameOff == 0 {
		v.nameOff, v.qtype = nameOff, typ
	}
}

func (v *queryVisitor) Record(sec string, r dnswire.Record) {
	if sec == dnswire.SectionAdditional && r.Type == dnswire.TypeOPT && !v.opt {
		// The DO bit is the top bit of the OPT TTL field (RFC 4035 §3).
		v.opt, v.do = true, r.TTL&(1<<15) != 0
	}
}

// responseVisitor folds the response message into out as it is walked.
type responseVisitor struct {
	out   *Summary
	texts *textTable
}

func (v *responseVisitor) Header(h dnswire.Header) {
	v.out.RCode = h.Flags.RCode
	v.out.AA = h.Flags.Authoritative
	v.out.Trunc = h.Flags.Truncated
	v.out.AnswerCount = int(h.AN)
	v.out.HasAnswerData = h.AN > 0
}

func (v *responseVisitor) Question([]byte, int, dnswire.Type, dnswire.Class) {}

func (v *responseVisitor) Record(sec string, r dnswire.Record) {
	out := v.out
	switch sec {
	case dnswire.SectionAnswer:
		out.AnswerTTLs = append(out.AnswerTTLs, r.TTL)
		switch r.Type {
		case dnswire.TypeA:
			out.V4Addrs = append(out.V4Addrs, r.Addr())
		case dnswire.TypeAAAA:
			out.V6Addrs = append(out.V6Addrs, r.Addr())
		case dnswire.TypeRRSIG:
			out.HasRRSIG = true
		}
	case dnswire.SectionAuthority:
		switch r.Type {
		case dnswire.TypeNS:
			out.AuthorityNS++
			out.NSTTLs = append(out.NSTTLs, r.TTL)
			var buf [255]byte
			target, _ := v.texts.intern(r.TargetTo(&buf))
			out.NSNames = append(out.NSNames, target)
		case dnswire.TypeSOA:
			out.HasSOA = true
			// RFC 2308: the negative-caching TTL is the lesser of the
			// SOA minimum and the SOA record's own TTL.
			out.SOAMinimum = min(r.SOAMinimum(), r.TTL)
		case dnswire.TypeRRSIG:
			out.HasRRSIG = true
		}
	case dnswire.SectionAdditional:
		if r.Type != dnswire.TypeOPT {
			out.HasAdditional = true
		}
	}
}

// Summarize parses tx into out. out is fully overwritten; its slices are
// reused across calls.
func (s *Summarizer) Summarize(tx *Transaction, out *Summary) error {
	qpkt, qTCP, err := ipwire.DecodeAny(tx.QueryPacket)
	if err != nil {
		return err
	}
	if qpkt.DstPort != ipwire.DNSPort {
		return ErrNotDNSPort
	}
	if err := dnswire.Walk(qpkt.Payload, &s.query); err != nil {
		return err
	}
	if s.texts == nil {
		s.texts = new(textTable)
	}
	var buf [255]byte // a name, or an address text (at most 45 octets)
	var name []byte   // no question: QName is ""
	if s.query.nameOff != 0 {
		name, _, _ = dnswire.ReadNameTo(&buf, qpkt.Payload, s.query.nameOff) // validated by Walk
	}
	qname, qnameHash := s.texts.intern(name)
	resolver, resolverHash := s.texts.intern(qpkt.Src.AppendTo(buf[:0]))
	nameserver, nameserverHash := s.texts.intern(qpkt.Dst.AppendTo(buf[:0]))

	*out = Summary{
		Resolver:        qpkt.Src,
		Nameserver:      qpkt.Dst,
		ResolverStr:     resolver,
		NameserverStr:   nameserver,
		QNameHash:       qnameHash,
		ResolverHash:    resolverHash,
		NameserverHash:  nameserverHash,
		textsHashed:     true,
		SensorID:        tx.SensorID,
		Workload:        tx.Workload,
		ClientTransport: tx.ClientTransport,
		QName:           qname,
		QType:           s.query.qtype,
		QDots:           dnswire.CountLabels(qname),
		DNSSECOK:        s.query.do,
		TCP:             qTCP,
		V4Addrs:         out.V4Addrs[:0],
		V6Addrs:         out.V6Addrs[:0],
		V4Strs:          out.V4Strs[:0],
		V6Strs:          out.V6Strs[:0],
		V4Hashes:        out.V4Hashes[:0],
		V6Hashes:        out.V6Hashes[:0],
		AnswerTTLs:      out.AnswerTTLs[:0],
		NSTTLs:          out.NSTTLs[:0],
		NSNames:         out.NSNames[:0],
	}

	if !tx.Answered() {
		return nil
	}
	rpkt, _, err := ipwire.DecodeAny(tx.ResponsePacket)
	if err != nil {
		if s.KeepUnparsableResponses {
			return nil
		}
		return err
	}
	if rpkt.Src != qpkt.Dst || rpkt.Dst != qpkt.Src {
		return ErrIPMismatch
	}
	// The visitor writes into out while the message is still being
	// validated; a malformed response rolls back to the unanswered form.
	unanswered := *out
	s.response = responseVisitor{out: out, texts: s.texts}
	if err := dnswire.Walk(rpkt.Payload, &s.response); err != nil {
		*out = unanswered
		if s.KeepUnparsableResponses {
			return nil
		}
		return err
	}
	out.Answered = true
	out.DelayMs = float64(tx.Delay().Microseconds()) / 1000
	out.Hops = ipwire.InferHops(rpkt.TTL)
	out.RespSize = len(tx.ResponsePacket)
	return nil
}

// NoError+NoData classification helpers used by the feature extractor
// and the Happy Eyeballs analysis.

// OKData reports a NoError response carrying an answer or a delegation
// ("NOERROR + data" in Fig. 2).
func (sum *Summary) OKData() bool {
	return sum.Answered && sum.RCode == dnswire.RCodeNoError &&
		(sum.HasAnswerData || sum.AuthorityNS > 0)
}

// NoData reports a NoError response with neither answer nor delegation
// (ok_nil, the NODATA case).
func (sum *Summary) NoData() bool {
	return sum.Answered && sum.RCode == dnswire.RCodeNoError &&
		!sum.HasAnswerData && sum.AuthorityNS == 0
}
