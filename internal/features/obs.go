package features

import (
	"dnsobservatory/internal/dnswire"
	"dnsobservatory/internal/hll"
	"dnsobservatory/internal/sie"
)

// Slot counts of an Obs. A summary with more address hashes or TTLs than
// these is refused by From, not cut to fit (DESIGN.md, "Feature state
// lifecycle", has the sweep that chose them).
const (
	obsAddrs = 4 // V4Hashes then V6Hashes
	obsTTLs  = 6 // AnswerTTLs then NSTTLs
)

// Obs is one transaction as Set.Observe sees it: exactly the fields of a
// sie.Summary that Observe reads, by value and of fixed size, so an
// engine can keep the first few transactions of an object without
// giving it a Set. It is not a second implementation of any feature —
// the only thing to do with an Obs is Fill a summary from it and hand
// that to Observe, which then does what it would have done with the
// summary From read.
type Obs struct {
	qnameHash, tldHash, esldHash uint64
	resolverHash, nameserverHash uint64
	delayMs                      float64
	addrs                        [obsAddrs]uint64
	ttls                         [obsTTLs]uint32
	soaMinimum                   uint32
	sensorID                     uint32
	respSize, hops               int32
	answerCount, authorityNS     int16
	qdots                        int16
	qtype                        dnswire.Type
	rcode                        dnswire.RCode
	nV4, nV6, nAns, nNS          uint8
	flags                        uint8
}

const (
	obsTCP = 1 << iota
	obsTrunc
	obsAnswered
	obsAnswerData
	obsAdditional
	obsDNSSECOK
	obsRRSIG
	obsSOA
)

func flag(b bool, bit uint8) uint8 {
	if b {
		return bit
	}
	return 0
}

// From records sum and reports whether the record holds it exactly. It
// refuses — leaving o unspecified — a summary whose hashes are not
// memoized (PrecomputeHashes), one with more address hashes or TTLs than
// a record has slots, and one with an integer outside its field's range:
// a refused summary must go to Set.Observe directly.
func (o *Obs) From(sum *sie.Summary) bool {
	nV4, nV6 := len(sum.V4Hashes), len(sum.V6Hashes)
	nAns, nNS := len(sum.AnswerTTLs), len(sum.NSTTLs)
	if !sum.HashesReady || nV4+nV6 > obsAddrs || nAns+nNS > obsTTLs ||
		int(int32(sum.RespSize)) != sum.RespSize || int(int32(sum.Hops)) != sum.Hops ||
		int(int16(sum.AnswerCount)) != sum.AnswerCount || int(int16(sum.AuthorityNS)) != sum.AuthorityNS ||
		int(int16(sum.QDots)) != sum.QDots {
		return false
	}
	*o = Obs{
		qnameHash:      sum.QNameHash,
		tldHash:        sum.TLDHash,
		esldHash:       sum.ESLDHash,
		resolverHash:   sum.ResolverHash,
		nameserverHash: sum.NameserverHash,
		delayMs:        sum.DelayMs,
		soaMinimum:     sum.SOAMinimum,
		sensorID:       sum.SensorID,
		respSize:       int32(sum.RespSize),
		hops:           int32(sum.Hops),
		answerCount:    int16(sum.AnswerCount),
		authorityNS:    int16(sum.AuthorityNS),
		qdots:          int16(sum.QDots),
		qtype:          sum.QType,
		rcode:          sum.RCode,
		nV4:            uint8(nV4),
		nV6:            uint8(nV6),
		nAns:           uint8(nAns),
		nNS:            uint8(nNS),
		flags: flag(sum.TCP, obsTCP) | flag(sum.Trunc, obsTrunc) | flag(sum.Answered, obsAnswered) |
			flag(sum.HasAnswerData, obsAnswerData) | flag(sum.HasAdditional, obsAdditional) |
			flag(sum.DNSSECOK, obsDNSSECOK) | flag(sum.HasRRSIG, obsRRSIG) | flag(sum.HasSOA, obsSOA),
	}
	copy(o.addrs[copy(o.addrs[:], sum.V4Hashes):], sum.V6Hashes)
	copy(o.ttls[copy(o.ttls[:], sum.AnswerTTLs):], sum.NSTTLs)
	return true
}

// Fill makes sum the operand Set.Observe needs to repeat the fold of the
// summary From recorded: every field Observe reads, hashes marked ready,
// nothing else (sum is a scratch value, good for Observe only). Its
// slices alias o until the next Fill. The two hashes a record has no
// room for are taken again from the values it keeps, and the bucket
// hints are left as they are: a record is replayed once, and Observe
// finds the buckets of a summary whose hints say nothing.
func (o *Obs) Fill(sum *sie.Summary) {
	sum.HashesReady = true
	sum.QNameHash, sum.TLDHash, sum.ESLDHash = o.qnameHash, o.tldHash, o.esldHash
	sum.ResolverHash, sum.NameserverHash = o.resolverHash, o.nameserverHash
	sum.SensorHash, sum.QTypeHash = hll.HashUint64(uint64(o.sensorID)), hll.HashUint64(uint64(o.qtype))
	sum.DelayMs = o.delayMs
	sum.SOAMinimum = o.soaMinimum
	sum.SensorID = o.sensorID
	sum.RespSize, sum.Hops = int(o.respSize), int(o.hops)
	sum.AnswerCount, sum.AuthorityNS = int(o.answerCount), int(o.authorityNS)
	sum.QDots = int(o.qdots)
	sum.QType, sum.RCode = o.qtype, o.rcode
	sum.TCP, sum.Trunc = o.flags&obsTCP != 0, o.flags&obsTrunc != 0
	sum.Answered = o.flags&obsAnswered != 0
	sum.HasAnswerData, sum.HasAdditional = o.flags&obsAnswerData != 0, o.flags&obsAdditional != 0
	sum.DNSSECOK, sum.HasRRSIG = o.flags&obsDNSSECOK != 0, o.flags&obsRRSIG != 0
	sum.HasSOA = o.flags&obsSOA != 0
	v4, addrs := int(o.nV4), int(o.nV4)+int(o.nV6)
	sum.V4Hashes, sum.V6Hashes = o.addrs[:v4:v4], o.addrs[v4:addrs:addrs]
	ans, ttls := int(o.nAns), int(o.nAns)+int(o.nNS)
	sum.AnswerTTLs, sum.NSTTLs = o.ttls[:ans:ans], o.ttls[ans:ttls:ttls]
}
