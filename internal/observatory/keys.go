package observatory

import (
	"dnsobservatory/internal/dnswire"
	"dnsobservatory/internal/publicsuffix"
	"dnsobservatory/internal/sie"
)

// Key extractors for the paper's datasets (§3.1).

// SrvIPKey keys on the authoritative nameserver address (srvip dataset).
func SrvIPKey(sum *sie.Summary) (string, bool) {
	return sum.NameserverText(), true
}

// SrcIPKey keys on the recursive resolver address.
func SrcIPKey(sum *sie.Summary) (string, bool) {
	return sum.ResolverText(), true
}

// SrcSrvKey keys on the resolver–nameserver pair (srcsrv dataset), the
// basis of the QNAME-minimization analysis (§3.6).
func SrcSrvKey(sum *sie.Summary) (string, bool) {
	return sum.ResolverText() + ">" + sum.NameserverText(), true
}

// SrcSrvKeyBytes is the allocation-free form of SrcSrvKey: it appends
// the composite key to buf instead of concatenating a fresh string —
// the last per-transaction allocation of the ingest hot path.
func SrcSrvKeyBytes(sum *sie.Summary, buf []byte) ([]byte, bool) {
	buf = append(buf, sum.ResolverText()...)
	buf = append(buf, '>')
	buf = append(buf, sum.NameserverText()...)
	return buf, true
}

// QNameKey keys on the full QNAME (qname dataset).
func QNameKey(sum *sie.Summary) (string, bool) {
	return sum.QName, true
}

// QTypeKey keys on the query type (qtype dataset; all QTYPEs tracked).
func QTypeKey(sum *sie.Summary) (string, bool) {
	return sum.QType.String(), true
}

// RCodeKey keys on the response code (rcode dataset); unanswered
// transactions key as "UNANSWERED".
func RCodeKey(sum *sie.Summary) (string, bool) {
	if !sum.Answered {
		return "UNANSWERED", true
	}
	return sum.RCode.String(), true
}

// ETLDKeyFunc returns a key extractor for the effective TLD of the QNAME
// (etld dataset; NXDOMAIN traffic included by design).
func ETLDKeyFunc(list *publicsuffix.List) KeyFunc {
	if list == nil {
		list = publicsuffix.Default
	}
	return func(sum *sie.Summary) (string, bool) {
		// As ESLDKeyFunc: the memoized walk, the list as fallback.
		if etld, ok := sum.ETLD(); ok {
			return etld, true
		}
		return list.ETLD(sum.QName), true
	}
}

// ESLDKeyFunc returns a key extractor for the effective SLD (esld
// dataset).
func ESLDKeyFunc(list *publicsuffix.List) KeyFunc {
	if list == nil {
		list = publicsuffix.Default
	}
	return func(sum *sie.Summary) (string, bool) {
		// PrecomputeHashes memoizes the walk; the lists agree by the
		// same contract that makes ESLDHash usable downstream.
		if esld, ok := sum.ESLD(); ok {
			return esld, true
		}
		return list.ESLD(sum.QName), true
	}
}

// AAFQDNKey keys on the QNAME of authoritative answers only: responses
// with the AA flag set and either answer data or NS records in AUTHORITY
// (aafqdn dataset, §4.2.1).
func AAFQDNKey(sum *sie.Summary) (string, bool) {
	if !sum.Answered || !sum.AA || sum.RCode != dnswire.RCodeNoError {
		return "", false
	}
	if !sum.HasAnswerData && sum.AuthorityNS == 0 {
		return "", false
	}
	return sum.QName, true
}

// StandardAggregations returns the eight datasets of §3.1 at the paper's
// capacities, scaled by factor (use factor < 1 for laptop-scale runs;
// factor 1 reproduces the paper's 100K/10K/20K/30K sizes).
func StandardAggregations(factor float64) []Aggregation {
	if factor <= 0 {
		factor = 1
	}
	k := func(n int) int {
		v := int(float64(n) * factor)
		if v < 10 {
			v = 10
		}
		return v
	}
	return []Aggregation{
		{Name: "srvip", K: k(100_000), Key: SrvIPKey},
		{Name: "etld", K: k(10_000), Key: ETLDKeyFunc(nil)},
		{Name: "esld", K: k(100_000), Key: ESLDKeyFunc(nil)},
		{Name: "qname", K: k(100_000), Key: QNameKey},
		{Name: "qtype", K: 64, Key: QTypeKey, NoAdmitter: true},
		{Name: "rcode", K: 24, Key: RCodeKey, NoAdmitter: true},
		{Name: "aafqdn", K: k(20_000), Key: AAFQDNKey},
		{Name: "srcsrv", K: k(30_000), Key: SrcSrvKey, KeyBytes: SrcSrvKeyBytes},
	}
}
