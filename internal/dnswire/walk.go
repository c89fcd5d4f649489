package dnswire

import "net/netip"

// The record sections, as ParseError.Section and Visitor.Record name them.
const (
	SectionAnswer     = "answer"
	SectionAuthority  = "authority"
	SectionAdditional = "additional"
)

// Visitor receives the parts of a message as Walk validates them, in
// wire order. Names and RDATA arrive as offsets into the message, so a
// visitor pays only for the fields it materializes.
type Visitor interface {
	// Header is called once, before the record-count guard.
	Header(h Header)
	// Question is called per question; nameOff locates the QNAME for
	// ReadName.
	Question(msg []byte, nameOff int, typ Type, class Class)
	// Record is called per resource record of section sec, after its
	// owner name and RDATA passed validation.
	Record(sec string, r Record)
}

// Record is a validated resource record viewed in place: the fixed
// fields decoded, owner name and RDATA as offsets into Msg. Its
// accessors cannot fail, because Walk only hands out records whose
// names and RDATA structure it has checked.
type Record struct {
	Msg     []byte
	NameOff int
	Type    Type
	Class   Class
	TTL     uint32
	DataOff int
	DataLen int
	// tail is the offset just past the last domain name embedded in the
	// RDATA: SOA's five counters, RRSIG's signature.
	tail int
}

// Walk validates msg section by section — every check Message.Unpack
// documents: record counts the message cannot hold, name compression
// and length rules, per-type RDATA structure — and reports each part to
// v. It stops at the first malformed entry with a *ParseError naming its
// section and index; parts before it have already been visited.
func Walk(msg []byte, v Visitor) error {
	h, err := UnpackHeader(msg)
	if err != nil {
		return &ParseError{Section: "header", Err: err}
	}
	v.Header(h)
	// A record needs at least 11 octets (root name + fixed fields), a
	// question at least 5; reject counts the message cannot possibly hold.
	if int(h.QD)*5+(int(h.AN)+int(h.NS)+int(h.AR))*11 > len(msg)-HeaderLen {
		return &ParseError{Section: "header", Err: ErrTooManyRecords}
	}
	off := HeaderLen
	for i := 0; i < int(h.QD); i++ {
		_, end, err := walkName(msg, off, nil)
		if err == nil && end+4 > len(msg) {
			err = ErrMessageTruncated
		}
		if err != nil {
			return &ParseError{Section: "question", Index: i, Err: err}
		}
		v.Question(msg, off, Type(be16(msg, end)), Class(be16(msg, end+2)))
		off = end + 4
	}
	for _, sec := range [...]struct {
		name string
		n    uint16
	}{{SectionAnswer, h.AN}, {SectionAuthority, h.NS}, {SectionAdditional, h.AR}} {
		for i := 0; i < int(sec.n); i++ {
			r, err := walkRecord(msg, off)
			if err != nil {
				return &ParseError{Section: sec.name, Index: i, Err: err}
			}
			v.Record(sec.name, r)
			off = r.DataOff + r.DataLen
		}
	}
	return nil
}

func be16(b []byte, i int) uint16 { return uint16(b[i])<<8 | uint16(b[i+1]) }

func be32(b []byte, i int) uint32 {
	return uint32(b[i])<<24 | uint32(b[i+1])<<16 | uint32(b[i+2])<<8 | uint32(b[i+3])
}

// walkRecord validates the record starting at msg[off].
func walkRecord(msg []byte, off int) (Record, error) {
	r := Record{Msg: msg, NameOff: off}
	_, off, err := walkName(msg, off, nil)
	if err != nil {
		return r, err
	}
	if off+10 > len(msg) {
		return r, ErrMessageTruncated
	}
	r.Type = Type(be16(msg, off))
	r.Class = Class(be16(msg, off+2))
	r.TTL = be32(msg, off+4)
	r.DataLen = int(be16(msg, off+8))
	r.DataOff = off + 10
	if r.DataOff+r.DataLen > len(msg) {
		return r, ErrMessageTruncated
	}
	return r, r.checkData()
}

// rdataMin is the least RDLENGTH the fixed fields of a type need (for A
// and AAAA, the only legal one).
var rdataMin = [...]int{TypeA: 4, TypeAAAA: 16, TypeMX: 3, TypeSRV: 7, TypeDS: 4, TypeRRSIG: 18, TypeDNSKEY: 4}

// checkData validates the RDATA structure of r's type, resolving
// compressed names inside it against the whole message.
func (r *Record) checkData() error {
	msg, off, n := r.Msg, r.DataOff, r.DataLen
	rd := msg[off : off+n]
	if int(r.Type) < len(rdataMin) && n < rdataMin[r.Type] {
		return ErrRDataTruncated
	}
	var err error
	switch r.Type {
	case TypeA, TypeAAAA:
		if n != rdataMin[r.Type] {
			return ErrRDataTruncated
		}
	case TypeNS, TypeCNAME, TypePTR:
		_, _, err = walkName(msg, off, nil)
	case TypeMX:
		_, _, err = walkName(msg, off+2, nil)
	case TypeSRV:
		_, _, err = walkName(msg, off+6, nil)
	case TypeSOA:
		if _, r.tail, err = walkName(msg, off, nil); err != nil {
			return err
		}
		if _, r.tail, err = walkName(msg, r.tail, nil); err == nil && r.tail+20 > off+n {
			err = ErrRDataTruncated
		}
	case TypeRRSIG:
		if _, r.tail, err = walkName(msg, off+18, nil); err == nil && r.tail > off+n {
			err = ErrRDataTruncated
		}
	case TypeTXT:
		for i := 0; i < n; i += 1 + int(rd[i]) {
			if i+1+int(rd[i]) > n {
				return ErrRDataTruncated
			}
		}
	case TypeOPT:
		for i := 0; i < n; {
			if i+4 > n {
				return ErrRDataTruncated
			}
			if i += 4 + int(be16(rd, i+2)); i > n {
				return ErrRDataTruncated
			}
		}
	}
	return err
}

// name materializes the name at off, which Walk has validated.
func (r *Record) name(off int) string {
	s, _, _ := ReadName(r.Msg, off)
	return s
}

// Name returns the record's owner name.
func (r *Record) Name() string { return r.name(r.NameOff) }

// Target returns the domain name that starts the RDATA of an NS, CNAME
// or PTR record.
func (r *Record) Target() string { return r.name(r.DataOff) }

// Addr returns the address of an A or AAAA record.
func (r *Record) Addr() netip.Addr {
	rd := r.Msg[r.DataOff : r.DataOff+r.DataLen]
	if r.Type == TypeA {
		return netip.AddrFrom4([4]byte(rd))
	}
	return netip.AddrFrom16([16]byte(rd))
}

// SOAMinimum returns the MINIMUM field of an SOA record.
func (r *Record) SOAMinimum() uint32 { return be32(r.Msg, r.tail+16) }

// Data materializes the RDATA as the typed value Message carries.
func (r *Record) Data() RData {
	off, n := r.DataOff, r.DataLen
	rd := r.Msg[off : off+n]
	switch r.Type {
	case TypeA:
		return ARData{r.Addr()}
	case TypeAAAA:
		return AAAARData{r.Addr()}
	case TypeNS:
		return NSRData{r.Target()}
	case TypeCNAME:
		return CNAMERData{r.Target()}
	case TypePTR:
		return PTRRData{r.Target()}
	case TypeSOA:
		_, rname, _ := walkName(r.Msg, off, nil)
		p := r.tail
		return SOARData{
			MName: r.name(off), RName: r.name(rname),
			Serial: be32(r.Msg, p), Refresh: be32(r.Msg, p+4), Retry: be32(r.Msg, p+8),
			Expire: be32(r.Msg, p+12), Minimum: be32(r.Msg, p+16),
		}
	case TypeMX:
		return MXRData{be16(rd, 0), r.name(off + 2)}
	case TypeTXT:
		var ss []string
		for i := 0; i < n; i += 1 + int(rd[i]) {
			ss = append(ss, string(rd[i+1:i+1+int(rd[i])]))
		}
		return TXTRData{ss}
	case TypeSRV:
		return SRVRData{Priority: be16(rd, 0), Weight: be16(rd, 2), Port: be16(rd, 4), Target: r.name(off + 6)}
	case TypeDS:
		return DSRData{
			KeyTag: be16(rd, 0), Algorithm: rd[2], DigestType: rd[3],
			Digest: append([]byte(nil), rd[4:]...),
		}
	case TypeRRSIG:
		return RRSIGRData{
			TypeCovered: Type(be16(rd, 0)),
			Algorithm:   rd[2],
			Labels:      rd[3],
			OriginalTTL: be32(rd, 4),
			Expiration:  be32(rd, 8),
			Inception:   be32(rd, 12),
			KeyTag:      be16(rd, 16),
			SignerName:  r.name(off + 18),
			Signature:   append([]byte(nil), r.Msg[r.tail:off+n]...),
		}
	case TypeDNSKEY:
		return DNSKEYRData{
			Flags: be16(rd, 0), Protocol: rd[2], Algorithm: rd[3],
			PublicKey: append([]byte(nil), rd[4:]...),
		}
	case TypeOPT:
		var opts []EDNSOption
		for i := 0; i < n; {
			l := int(be16(rd, i+2))
			opts = append(opts, EDNSOption{be16(rd, i), append([]byte(nil), rd[i+4:i+4+l]...)})
			i += 4 + l
		}
		return OPTRData{opts}
	default:
		return RawRData{append([]byte(nil), rd...)}
	}
}
