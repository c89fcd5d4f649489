package dnswire

import (
	"errors"
	"fmt"
	"net/netip"
	"strings"
)

// ErrRDataTruncated is returned when RDATA is shorter than its RDLENGTH
// or than its type requires.
var ErrRDataTruncated = errors.New("dnswire: rdata truncated")

// RData is the typed contents of a resource record. Concrete types cover
// every record the Observatory feature extractor inspects; anything else
// is carried opaquely as RawRData.
type RData interface {
	// appendRData appends the wire encoding. cmap/base support name
	// compression for the name-bearing record types; base is the offset
	// of the RDATA within the message.
	appendRData(dst []byte, cmap map[string]int) ([]byte, error)
	// String returns zone-file-style presentation data.
	String() string
}

// ARData is an IPv4 address record (RFC 1035 §3.4.1).
type ARData struct{ Addr netip.Addr }

func (r ARData) appendRData(dst []byte, _ map[string]int) ([]byte, error) {
	a4 := r.Addr.As4()
	return append(dst, a4[:]...), nil
}

// String implements RData.
func (r ARData) String() string { return r.Addr.String() }

// AAAARData is an IPv6 address record (RFC 3596).
type AAAARData struct{ Addr netip.Addr }

func (r AAAARData) appendRData(dst []byte, _ map[string]int) ([]byte, error) {
	a16 := r.Addr.As16()
	return append(dst, a16[:]...), nil
}

// String implements RData.
func (r AAAARData) String() string { return r.Addr.String() }

// NSRData names an authoritative server (RFC 1035 §3.3.11).
type NSRData struct{ NS string }

func (r NSRData) appendRData(dst []byte, cmap map[string]int) ([]byte, error) {
	return AppendName(dst, r.NS, cmap)
}

// String implements RData.
func (r NSRData) String() string { return Canonical(r.NS) }

// CNAMERData is an alias record (RFC 1035 §3.3.1).
type CNAMERData struct{ Target string }

func (r CNAMERData) appendRData(dst []byte, cmap map[string]int) ([]byte, error) {
	return AppendName(dst, r.Target, cmap)
}

// String implements RData.
func (r CNAMERData) String() string { return Canonical(r.Target) }

// PTRRData is a pointer record (RFC 1035 §3.3.12), used by reverse DNS.
type PTRRData struct{ Target string }

func (r PTRRData) appendRData(dst []byte, cmap map[string]int) ([]byte, error) {
	return AppendName(dst, r.Target, cmap)
}

// String implements RData.
func (r PTRRData) String() string { return Canonical(r.Target) }

// SOARData is a start-of-authority record (RFC 1035 §3.3.13). Minimum is
// the negative-caching TTL (RFC 2308 §4) central to the paper's §5.
type SOARData struct {
	MName   string
	RName   string
	Serial  uint32
	Refresh uint32
	Retry   uint32
	Expire  uint32
	Minimum uint32
}

func (r SOARData) appendRData(dst []byte, cmap map[string]int) ([]byte, error) {
	var err error
	dst, err = AppendName(dst, r.MName, cmap)
	if err != nil {
		return dst, err
	}
	dst, err = AppendName(dst, r.RName, cmap)
	if err != nil {
		return dst, err
	}
	for _, v := range [...]uint32{r.Serial, r.Refresh, r.Retry, r.Expire, r.Minimum} {
		dst = append(dst, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	}
	return dst, nil
}

// String implements RData.
func (r SOARData) String() string {
	return fmt.Sprintf("%s %s %d %d %d %d %d",
		Canonical(r.MName), Canonical(r.RName), r.Serial, r.Refresh, r.Retry, r.Expire, r.Minimum)
}

// MXRData is a mail-exchange record (RFC 1035 §3.3.9).
type MXRData struct {
	Preference uint16
	MX         string
}

func (r MXRData) appendRData(dst []byte, cmap map[string]int) ([]byte, error) {
	dst = append(dst, byte(r.Preference>>8), byte(r.Preference))
	return AppendName(dst, r.MX, cmap)
}

// String implements RData.
func (r MXRData) String() string { return fmt.Sprintf("%d %s", r.Preference, Canonical(r.MX)) }

// TXTRData is one or more character strings (RFC 1035 §3.3.14).
type TXTRData struct{ Strings []string }

func (r TXTRData) appendRData(dst []byte, _ map[string]int) ([]byte, error) {
	for _, s := range r.Strings {
		if len(s) > 255 {
			return dst, ErrLabelTooLong
		}
		dst = append(dst, byte(len(s)))
		dst = append(dst, s...)
	}
	return dst, nil
}

// String implements RData.
func (r TXTRData) String() string {
	parts := make([]string, len(r.Strings))
	for i, s := range r.Strings {
		parts[i] = fmt.Sprintf("%q", s)
	}
	return strings.Join(parts, " ")
}

// SRVRData is a service-location record (RFC 2782). The target name is
// not compressed, per the RFC.
type SRVRData struct {
	Priority uint16
	Weight   uint16
	Port     uint16
	Target   string
}

func (r SRVRData) appendRData(dst []byte, _ map[string]int) ([]byte, error) {
	dst = append(dst,
		byte(r.Priority>>8), byte(r.Priority),
		byte(r.Weight>>8), byte(r.Weight),
		byte(r.Port>>8), byte(r.Port))
	return AppendName(dst, r.Target, nil)
}

// String implements RData.
func (r SRVRData) String() string {
	return fmt.Sprintf("%d %d %d %s", r.Priority, r.Weight, r.Port, Canonical(r.Target))
}

// DSRData is a delegation-signer record (RFC 4034 §5).
type DSRData struct {
	KeyTag     uint16
	Algorithm  uint8
	DigestType uint8
	Digest     []byte
}

func (r DSRData) appendRData(dst []byte, _ map[string]int) ([]byte, error) {
	dst = append(dst, byte(r.KeyTag>>8), byte(r.KeyTag), r.Algorithm, r.DigestType)
	return append(dst, r.Digest...), nil
}

// String implements RData.
func (r DSRData) String() string {
	return fmt.Sprintf("%d %d %d %x", r.KeyTag, r.Algorithm, r.DigestType, r.Digest)
}

// RRSIGRData is a DNSSEC signature record (RFC 4034 §3). Its presence in
// a section is what the paper's ok_sec feature checks. The signer name is
// never compressed.
type RRSIGRData struct {
	TypeCovered Type
	Algorithm   uint8
	Labels      uint8
	OriginalTTL uint32
	Expiration  uint32
	Inception   uint32
	KeyTag      uint16
	SignerName  string
	Signature   []byte
}

func (r RRSIGRData) appendRData(dst []byte, _ map[string]int) ([]byte, error) {
	dst = append(dst,
		byte(r.TypeCovered>>8), byte(r.TypeCovered),
		r.Algorithm, r.Labels,
		byte(r.OriginalTTL>>24), byte(r.OriginalTTL>>16), byte(r.OriginalTTL>>8), byte(r.OriginalTTL),
		byte(r.Expiration>>24), byte(r.Expiration>>16), byte(r.Expiration>>8), byte(r.Expiration),
		byte(r.Inception>>24), byte(r.Inception>>16), byte(r.Inception>>8), byte(r.Inception),
		byte(r.KeyTag>>8), byte(r.KeyTag))
	var err error
	dst, err = AppendName(dst, r.SignerName, nil)
	if err != nil {
		return dst, err
	}
	return append(dst, r.Signature...), nil
}

// String implements RData.
func (r RRSIGRData) String() string {
	return fmt.Sprintf("%s %d %d %d sig=%dB", r.TypeCovered, r.Algorithm, r.Labels, r.OriginalTTL, len(r.Signature))
}

// DNSKEYRData is a DNSSEC public key record (RFC 4034 §2).
type DNSKEYRData struct {
	Flags     uint16 // 256 = ZSK, 257 = KSK (SEP bit)
	Protocol  uint8  // always 3
	Algorithm uint8  // 15 = Ed25519 (RFC 8080)
	PublicKey []byte
}

func (r DNSKEYRData) appendRData(dst []byte, _ map[string]int) ([]byte, error) {
	dst = append(dst, byte(r.Flags>>8), byte(r.Flags), r.Protocol, r.Algorithm)
	return append(dst, r.PublicKey...), nil
}

// String implements RData.
func (r DNSKEYRData) String() string {
	return fmt.Sprintf("%d %d %d key=%dB", r.Flags, r.Protocol, r.Algorithm, len(r.PublicKey))
}

// OPTRData is the EDNS0 OPT pseudo-record body (RFC 6891). The UDP
// payload size, extended RCODE and DO bit live in the record's CLASS and
// TTL fields, handled by RR packing; options (e.g. cookies, client
// subnet) are carried as raw code/data pairs — the Observatory pipeline
// drops them during preprocessing for privacy (§2.5).
type OPTRData struct {
	Options []EDNSOption
}

// EDNSOption is a single EDNS0 option TLV.
type EDNSOption struct {
	Code uint16
	Data []byte
}

// EDNS0 option codes relevant to the preprocessing privacy filter.
const (
	EDNSOptionCookie       uint16 = 10 // RFC 7873
	EDNSOptionClientSubnet uint16 = 8  // RFC 7871
)

func (r OPTRData) appendRData(dst []byte, _ map[string]int) ([]byte, error) {
	for _, o := range r.Options {
		dst = append(dst, byte(o.Code>>8), byte(o.Code), byte(len(o.Data)>>8), byte(len(o.Data)))
		dst = append(dst, o.Data...)
	}
	return dst, nil
}

// String implements RData.
func (r OPTRData) String() string { return fmt.Sprintf("OPT %d options", len(r.Options)) }

// RawRData carries the RDATA of record types the package does not model.
type RawRData struct{ Data []byte }

func (r RawRData) appendRData(dst []byte, _ map[string]int) ([]byte, error) {
	return append(dst, r.Data...), nil
}

// String implements RData.
func (r RawRData) String() string { return fmt.Sprintf("\\# %d %x", len(r.Data), r.Data) }

// AppendRData appends rr's RDATA in uncompressed wire form — the
// canonical encoding DNSSEC signs over (RFC 4034 §6.2).
func AppendRData(dst []byte, rr RR) ([]byte, error) {
	if rr.Data == nil {
		return dst, nil
	}
	return rr.Data.appendRData(dst, nil)
}
