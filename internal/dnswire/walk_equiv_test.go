// Parser equivalence: the walker-backed Unpack against a frozen copy of
// the materializing parser it replaced. The reference lives here, in
// test code only, so the package keeps exactly one parser.
package dnswire_test

import (
	"errors"
	"math/rand"
	"net/netip"
	"reflect"
	"strings"
	"testing"

	"dnsobservatory/internal/dnswire"
)

const (
	refMaxNameLen  = 255
	refMaxPointers = 128
)

// refReadName is ReadName as it was before walkName: a strings.Builder
// grown label by label.
func refReadName(msg []byte, off int) (string, int, error) {
	var sb strings.Builder
	ptrBudget := refMaxPointers
	end := -1
	for {
		if off >= len(msg) {
			return "", 0, dnswire.ErrNameTruncated
		}
		b := msg[off]
		switch {
		case b == 0:
			if end < 0 {
				end = off + 1
			}
			if sb.Len() == 0 {
				return ".", end, nil
			}
			if sb.Len() > refMaxNameLen {
				return "", 0, dnswire.ErrNameTooLong
			}
			return sb.String(), end, nil
		case b&0xc0 == 0xc0:
			if off+1 >= len(msg) {
				return "", 0, dnswire.ErrNameTruncated
			}
			if end < 0 {
				end = off + 2
			}
			ptr := int(b&0x3f)<<8 | int(msg[off+1])
			if ptr >= off {
				return "", 0, dnswire.ErrBadPointer
			}
			ptrBudget--
			if ptrBudget <= 0 {
				return "", 0, dnswire.ErrTooManyPointers
			}
			off = ptr
		case b&0xc0 != 0:
			return "", 0, dnswire.ErrBadLabelType
		default:
			n := int(b)
			if off+1+n > len(msg) {
				return "", 0, dnswire.ErrNameTruncated
			}
			for _, c := range msg[off+1 : off+1+n] {
				if c >= 'A' && c <= 'Z' {
					c += 'a' - 'A'
				}
				sb.WriteByte(c)
			}
			sb.WriteByte('.')
			off += 1 + n
		}
	}
}

// refUnpack is Message.Unpack as it was before Walk.
func refUnpack(m *dnswire.Message, msg []byte) error {
	h, err := dnswire.UnpackHeader(msg)
	if err != nil {
		return &dnswire.ParseError{Section: "header", Err: err}
	}
	m.Reset()
	m.ID = h.ID
	m.Flags = h.Flags
	if int(h.QD)*5+(int(h.AN)+int(h.NS)+int(h.AR))*11 > len(msg)-dnswire.HeaderLen {
		return &dnswire.ParseError{Section: "header", Err: dnswire.ErrTooManyRecords}
	}
	off := dnswire.HeaderLen
	for i := 0; i < int(h.QD); i++ {
		var q dnswire.Question
		q.Name, off, err = refReadName(msg, off)
		if err != nil {
			return &dnswire.ParseError{Section: "question", Index: i, Err: err}
		}
		if off+4 > len(msg) {
			return &dnswire.ParseError{Section: "question", Index: i, Err: dnswire.ErrMessageTruncated}
		}
		q.Type = dnswire.Type(uint16(msg[off])<<8 | uint16(msg[off+1]))
		q.Class = dnswire.Class(uint16(msg[off+2])<<8 | uint16(msg[off+3]))
		off += 4
		m.Questions = append(m.Questions, q)
	}
	for _, sec := range [...]struct {
		name string
		rrs  *[]dnswire.RR
		n    int
	}{
		{"answer", &m.Answers, int(h.AN)},
		{"authority", &m.Authority, int(h.NS)},
		{"additional", &m.Additional, int(h.AR)},
	} {
		for i := 0; i < sec.n; i++ {
			var rr dnswire.RR
			rr, off, err = refUnpackRR(msg, off)
			if err != nil {
				return &dnswire.ParseError{Section: sec.name, Index: i, Err: err}
			}
			*sec.rrs = append(*sec.rrs, rr)
		}
	}
	return nil
}

func refUnpackRR(msg []byte, off int) (dnswire.RR, int, error) {
	var rr dnswire.RR
	var err error
	rr.Name, off, err = refReadName(msg, off)
	if err != nil {
		return rr, off, err
	}
	if off+10 > len(msg) {
		return rr, off, dnswire.ErrMessageTruncated
	}
	rr.Type = dnswire.Type(uint16(msg[off])<<8 | uint16(msg[off+1]))
	rr.Class = dnswire.Class(uint16(msg[off+2])<<8 | uint16(msg[off+3]))
	rr.TTL = uint32(msg[off+4])<<24 | uint32(msg[off+5])<<16 | uint32(msg[off+6])<<8 | uint32(msg[off+7])
	n := int(msg[off+8])<<8 | int(msg[off+9])
	off += 10
	if off+n > len(msg) {
		return rr, off, dnswire.ErrMessageTruncated
	}
	rr.Data, err = refUnpackRData(rr.Type, msg, off, n)
	return rr, off + n, err
}

// refUnpackRData is unpackRData as it was before Record.Data.
func refUnpackRData(typ dnswire.Type, msg []byte, off, n int) (dnswire.RData, error) {
	if off+n > len(msg) {
		return nil, dnswire.ErrRDataTruncated
	}
	rd := msg[off : off+n]
	switch typ {
	case dnswire.TypeA:
		if n != 4 {
			return nil, dnswire.ErrRDataTruncated
		}
		return dnswire.ARData{netip.AddrFrom4([4]byte(rd))}, nil
	case dnswire.TypeAAAA:
		if n != 16 {
			return nil, dnswire.ErrRDataTruncated
		}
		return dnswire.AAAARData{netip.AddrFrom16([16]byte(rd))}, nil
	case dnswire.TypeNS:
		name, _, err := refReadName(msg, off)
		return dnswire.NSRData{name}, err
	case dnswire.TypeCNAME:
		name, _, err := refReadName(msg, off)
		return dnswire.CNAMERData{name}, err
	case dnswire.TypePTR:
		name, _, err := refReadName(msg, off)
		return dnswire.PTRRData{name}, err
	case dnswire.TypeSOA:
		mname, p, err := refReadName(msg, off)
		if err != nil {
			return nil, err
		}
		rname, p, err := refReadName(msg, p)
		if err != nil {
			return nil, err
		}
		if p+20 > off+n {
			return nil, dnswire.ErrRDataTruncated
		}
		u32 := func(i int) uint32 {
			return uint32(msg[i])<<24 | uint32(msg[i+1])<<16 | uint32(msg[i+2])<<8 | uint32(msg[i+3])
		}
		return dnswire.SOARData{
			MName: mname, RName: rname,
			Serial: u32(p), Refresh: u32(p + 4), Retry: u32(p + 8),
			Expire: u32(p + 12), Minimum: u32(p + 16),
		}, nil
	case dnswire.TypeMX:
		if n < 3 {
			return nil, dnswire.ErrRDataTruncated
		}
		name, _, err := refReadName(msg, off+2)
		return dnswire.MXRData{uint16(rd[0])<<8 | uint16(rd[1]), name}, err
	case dnswire.TypeTXT:
		var ss []string
		for i := 0; i < n; {
			l := int(rd[i])
			if i+1+l > n {
				return nil, dnswire.ErrRDataTruncated
			}
			ss = append(ss, string(rd[i+1:i+1+l]))
			i += 1 + l
		}
		return dnswire.TXTRData{ss}, nil
	case dnswire.TypeSRV:
		if n < 7 {
			return nil, dnswire.ErrRDataTruncated
		}
		name, _, err := refReadName(msg, off+6)
		return dnswire.SRVRData{
			Priority: uint16(rd[0])<<8 | uint16(rd[1]),
			Weight:   uint16(rd[2])<<8 | uint16(rd[3]),
			Port:     uint16(rd[4])<<8 | uint16(rd[5]),
			Target:   name,
		}, err
	case dnswire.TypeDS:
		if n < 4 {
			return nil, dnswire.ErrRDataTruncated
		}
		return dnswire.DSRData{
			KeyTag:     uint16(rd[0])<<8 | uint16(rd[1]),
			Algorithm:  rd[2],
			DigestType: rd[3],
			Digest:     append([]byte(nil), rd[4:]...),
		}, nil
	case dnswire.TypeRRSIG:
		if n < 18 {
			return nil, dnswire.ErrRDataTruncated
		}
		signer, p, err := refReadName(msg, off+18)
		if err != nil {
			return nil, err
		}
		if p > off+n {
			return nil, dnswire.ErrRDataTruncated
		}
		u32 := func(i int) uint32 {
			return uint32(rd[i])<<24 | uint32(rd[i+1])<<16 | uint32(rd[i+2])<<8 | uint32(rd[i+3])
		}
		return dnswire.RRSIGRData{
			TypeCovered: dnswire.Type(uint16(rd[0])<<8 | uint16(rd[1])),
			Algorithm:   rd[2],
			Labels:      rd[3],
			OriginalTTL: u32(4),
			Expiration:  u32(8),
			Inception:   u32(12),
			KeyTag:      uint16(rd[16])<<8 | uint16(rd[17]),
			SignerName:  signer,
			Signature:   append([]byte(nil), msg[p:off+n]...),
		}, nil
	case dnswire.TypeDNSKEY:
		if n < 4 {
			return nil, dnswire.ErrRDataTruncated
		}
		return dnswire.DNSKEYRData{
			Flags:     uint16(rd[0])<<8 | uint16(rd[1]),
			Protocol:  rd[2],
			Algorithm: rd[3],
			PublicKey: append([]byte(nil), rd[4:]...),
		}, nil
	case dnswire.TypeOPT:
		var opts []dnswire.EDNSOption
		for i := 0; i < n; {
			if i+4 > n {
				return nil, dnswire.ErrRDataTruncated
			}
			code := uint16(rd[i])<<8 | uint16(rd[i+1])
			l := int(rd[i+2])<<8 | int(rd[i+3])
			if i+4+l > n {
				return nil, dnswire.ErrRDataTruncated
			}
			opts = append(opts, dnswire.EDNSOption{code, append([]byte(nil), rd[i+4:i+4+l]...)})
			i += 4 + l
		}
		return dnswire.OPTRData{opts}, nil
	default:
		return dnswire.RawRData{append([]byte(nil), rd...)}, nil
	}
}

// checkWalkMatchesRef asserts both parsers agree on data: accept/reject,
// the ParseError location and cause, and every field decoded (including
// the entries decoded before a malformed one).
func checkWalkMatchesRef(t *testing.T, data []byte) {
	t.Helper()
	var got, want dnswire.Message
	gotErr, wantErr := got.Unpack(data), refUnpack(&want, data)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("accept/reject differs: walker %v, reference %v\ninput: %x", gotErr, wantErr, data)
	}
	if wantErr != nil {
		var gp, wp *dnswire.ParseError
		if !errors.As(gotErr, &gp) || !errors.As(wantErr, &wp) {
			t.Fatalf("not ParseErrors: %v / %v", gotErr, wantErr)
		}
		if gp.Section != wp.Section || gp.Index != wp.Index || gp.Err != wp.Err {
			t.Fatalf("ParseError differs: walker %v, reference %v\ninput: %x", gp, wp, data)
		}
	}
	if !reflect.DeepEqual(normalize(got), normalize(want)) {
		t.Fatalf("decoded fields differ\nwalker:    %+v\nreference: %+v\ninput: %x", got, want, data)
	}
}

// normalize maps empty sections to nil, so reused capacity (a non-nil
// empty slice) compares equal to a never-filled section.
func normalize(m dnswire.Message) dnswire.Message {
	if len(m.Questions) == 0 {
		m.Questions = nil
	}
	if len(m.Answers) == 0 {
		m.Answers = nil
	}
	if len(m.Authority) == 0 {
		m.Authority = nil
	}
	if len(m.Additional) == 0 {
		m.Additional = nil
	}
	return m
}

// FuzzWalkMatchesUnpack: for any input, the walker-backed Unpack and the
// reference copy of the parser it replaced agree.
func FuzzWalkMatchesUnpack(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkWalkMatchesRef(t, data) })
}

// TestWalkMatchesUnpackOnMutations runs the equivalence over byte-flipped
// and truncated simnet messages, so the reject paths are covered without
// the fuzzing engine.
func TestWalkMatchesUnpackOnMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, seed := range fuzzSeeds() {
		checkWalkMatchesRef(t, seed)
		for i := 0; i < 400; i++ {
			buf := append([]byte(nil), seed...)
			for f := 0; f < 1+rng.Intn(4); f++ {
				buf[rng.Intn(len(buf))] = byte(rng.Intn(256))
			}
			if rng.Intn(4) == 0 {
				buf = buf[:rng.Intn(len(buf)+1)]
			}
			checkWalkMatchesRef(t, buf)
		}
	}
}
