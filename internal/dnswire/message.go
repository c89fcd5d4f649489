package dnswire

import (
	"errors"
	"fmt"
	"strings"
)

// Errors returned by the message codec.
var (
	ErrMessageTruncated = errors.New("dnswire: message truncated")
	ErrTooManyRecords   = errors.New("dnswire: record count exceeds message size")
)

// ParseError reports where in a message Unpack gave up: which section
// ("header", "question", "answer", "authority", "additional") and which
// entry within it. It unwraps to the codec sentinel (ErrMessageTruncated,
// ErrBadPointer, …), so errors.Is checks written against the sentinels
// keep working; the location exists for operators triaging rejected
// traffic, not for control flow.
type ParseError struct {
	Section string
	Index   int
	Err     error
}

// Error implements error.
func (e *ParseError) Error() string {
	return fmt.Sprintf("dnswire: %s[%d]: %v", e.Section, e.Index, e.Err)
}

// Unwrap returns the underlying codec error.
func (e *ParseError) Unwrap() error { return e.Err }

// Question is a single entry of the question section.
type Question struct {
	Name  string
	Type  Type
	Class Class
}

// String returns "name TYPE CLASS".
func (q Question) String() string {
	return fmt.Sprintf("%s %s %s", Canonical(q.Name), q.Class, q.Type)
}

// RR is a resource record from any of the three record sections.
type RR struct {
	Name  string
	Type  Type
	Class Class
	TTL   uint32
	Data  RData
}

// String returns a zone-file-style line.
func (rr RR) String() string {
	return fmt.Sprintf("%s %d %s %s %s", Canonical(rr.Name), rr.TTL, rr.Class, rr.Type, rr.Data)
}

// Message is a full DNS message. The zero value is an empty query.
type Message struct {
	ID    uint16
	Flags Flags

	Questions  []Question
	Answers    []RR
	Authority  []RR
	Additional []RR
}

// Reset clears the message for reuse, keeping section slice capacity so
// steady-state Unpack loops do not reallocate.
func (m *Message) Reset() {
	m.ID = 0
	m.Flags = Flags{}
	m.Questions = m.Questions[:0]
	m.Answers = m.Answers[:0]
	m.Authority = m.Authority[:0]
	m.Additional = m.Additional[:0]
}

// Question returns the first question, or a zero Question if the section
// is empty. Virtually every real transaction has exactly one.
func (m *Message) Question() Question {
	if len(m.Questions) == 0 {
		return Question{}
	}
	return m.Questions[0]
}

// OPT returns the EDNS0 OPT record from the additional section, or nil.
func (m *Message) OPT() *RR {
	for i := range m.Additional {
		if m.Additional[i].Type == TypeOPT {
			return &m.Additional[i]
		}
	}
	return nil
}

// EDNSDo reports whether an OPT record is present with the DO (DNSSEC OK)
// bit set. The DO bit is the top bit of the OPT TTL field (RFC 4035 §3).
func (m *Message) EDNSDo() bool {
	opt := m.OPT()
	return opt != nil && opt.TTL&(1<<15) != 0
}

// SetEDNS attaches an OPT record advertising udpSize, with the DO bit if
// requested. An existing OPT record is replaced.
func (m *Message) SetEDNS(udpSize uint16, do bool) {
	var ttl uint32
	if do {
		ttl = 1 << 15
	}
	rr := RR{Name: ".", Type: TypeOPT, Class: Class(udpSize), TTL: ttl, Data: OPTRData{}}
	if opt := m.OPT(); opt != nil {
		*opt = rr
		return
	}
	m.Additional = append(m.Additional, rr)
}

// Pack appends the wire encoding of m to dst (which must begin the DNS
// message: compression offsets are relative to len(dst) at entry being 0;
// pass nil or an empty slice).
func (m *Message) Pack(dst []byte) ([]byte, error) {
	h := Header{
		ID: m.ID, Flags: m.Flags,
		QD: uint16(len(m.Questions)), AN: uint16(len(m.Answers)),
		NS: uint16(len(m.Authority)), AR: uint16(len(m.Additional)),
	}
	dst = h.AppendHeader(dst)
	cmap := make(map[string]int, 8)
	var err error
	for _, q := range m.Questions {
		dst, err = AppendName(dst, q.Name, cmap)
		if err != nil {
			return dst, err
		}
		dst = append(dst, byte(q.Type>>8), byte(q.Type), byte(q.Class>>8), byte(q.Class))
	}
	for _, sec := range [...][]RR{m.Answers, m.Authority, m.Additional} {
		for _, rr := range sec {
			dst, err = appendRR(dst, rr, cmap)
			if err != nil {
				return dst, err
			}
		}
	}
	return dst, nil
}

func appendRR(dst []byte, rr RR, cmap map[string]int) ([]byte, error) {
	var err error
	dst, err = AppendName(dst, rr.Name, cmap)
	if err != nil {
		return dst, err
	}
	dst = append(dst,
		byte(rr.Type>>8), byte(rr.Type),
		byte(rr.Class>>8), byte(rr.Class),
		byte(rr.TTL>>24), byte(rr.TTL>>16), byte(rr.TTL>>8), byte(rr.TTL))
	// Reserve RDLENGTH, encode RDATA, then patch the length in.
	lenAt := len(dst)
	dst = append(dst, 0, 0)
	if rr.Data != nil {
		dst, err = rr.Data.appendRData(dst, cmap)
		if err != nil {
			return dst, err
		}
	}
	n := len(dst) - lenAt - 2
	if n > 0xffff {
		return dst, ErrNameTooLong
	}
	dst[lenAt] = byte(n >> 8)
	dst[lenAt+1] = byte(n)
	return dst, nil
}

// Unpack decodes msg into m, replacing its contents. Section slices are
// reused when capacity allows. It is Walk with a visitor that
// materializes every name and RDATA; on a *ParseError m holds the
// entries decoded before the malformed one.
func (m *Message) Unpack(msg []byte) error { return Walk(msg, (*unpacker)(m)) }

// unpacker is the Visitor that fills a Message.
type unpacker Message

func (u *unpacker) Header(h Header) {
	(*Message)(u).Reset()
	u.ID = h.ID
	u.Flags = h.Flags
}

func (u *unpacker) Question(msg []byte, nameOff int, typ Type, class Class) {
	name, _, _ := ReadName(msg, nameOff) // validated by Walk
	u.Questions = append(u.Questions, Question{Name: name, Type: typ, Class: class})
}

func (u *unpacker) Record(sec string, r Record) {
	rr := RR{Name: r.Name(), Type: r.Type, Class: r.Class, TTL: r.TTL, Data: r.Data()}
	switch sec {
	case SectionAnswer:
		u.Answers = append(u.Answers, rr)
	case SectionAuthority:
		u.Authority = append(u.Authority, rr)
	default:
		u.Additional = append(u.Additional, rr)
	}
}

// String renders the message in dig-like presentation form.
func (m *Message) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, ";; id %d opcode %d rcode %s", m.ID, m.Flags.Opcode, m.Flags.RCode)
	if m.Flags.Response {
		sb.WriteString(" qr")
	}
	if m.Flags.Authoritative {
		sb.WriteString(" aa")
	}
	if m.Flags.RecursionDesired {
		sb.WriteString(" rd")
	}
	sb.WriteByte('\n')
	for _, q := range m.Questions {
		fmt.Fprintf(&sb, ";%s\n", q)
	}
	secs := [...]struct {
		name string
		rrs  []RR
	}{{"ANSWER", m.Answers}, {"AUTHORITY", m.Authority}, {"ADDITIONAL", m.Additional}}
	for _, sec := range secs {
		for _, rr := range sec.rrs {
			fmt.Fprintf(&sb, "%s %s\n", sec.name, rr.String())
		}
	}
	return sb.String()
}
