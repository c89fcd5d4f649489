package encwire

import (
	"encoding/binary"
	"errors"
	"io"
	"time"

	"dnsobservatory/internal/sie"
)

// Observation is one encrypted message as a passive observer of the
// client→resolver channel records it: a timestamped ciphertext size
// with direction and flow identity, plus the simulator's ground-truth
// labels (Workload, Domain) that a real observer would not have.
type Observation struct {
	Flow      uint64    // flow (exchange sequence) the message belongs to
	Time      time.Time // when the message crossed the observation point
	Mode      Mode
	Policy    Policy
	Dir       Dir
	WireLen   uint32 // ciphertext bytes on the wire (see WireLen)
	Handshake bool   // first message after a connection handshake
	Workload  uint32 // sie.Workload* ground-truth tag
	Domain    string // ground-truth domain label ("" when none applies)
}

// Field numbers of the observation message (protobuf wire format).
const (
	obsFieldFlow      = 1
	obsFieldTimeNs    = 2
	obsFieldMode      = 3
	obsFieldPolicy    = 4
	obsFieldDir       = 5
	obsFieldWireLen   = 6
	obsFieldHandshake = 7
	obsFieldWorkload  = 8
	obsFieldDomain    = 9
)

// Limits enforced by Unmarshal so hostile frames cannot force large
// allocations or nonsense values into downstream accumulators.
const (
	// MaxDomainLen bounds the domain label (a DNS name is ≤ 255 octets).
	MaxDomainLen = 255
	// MaxWireLen bounds a single message's wire size (far above any
	// framed DNS message, but small enough to keep sums meaningful).
	MaxWireLen = 1 << 24
)

// Errors returned by the observation codec.
var (
	ErrObsTruncated  = errors.New("encwire: truncated observation")
	ErrObsOverflow   = errors.New("encwire: varint overflow")
	ErrObsWireType   = errors.New("encwire: unsupported wire type")
	ErrObsFieldRange = errors.New("encwire: observation field out of range")
)

const (
	wireVarint = 0
	wireBytes  = 2
)

func readUvarint(b []byte) (uint64, int, error) {
	v, n := binary.Uvarint(b)
	switch {
	case n == 0:
		return 0, 0, ErrObsTruncated
	case n < 0:
		return 0, 0, ErrObsOverflow
	}
	return v, n, nil
}

func appendVarintField(dst []byte, field int, v uint64) []byte {
	dst = binary.AppendUvarint(dst, uint64(field)<<3|wireVarint)
	return binary.AppendUvarint(dst, v)
}

// Append serializes obs in protobuf wire format. All scalar fields are
// written unconditionally (so Append∘Unmarshal is a fixed point); the
// domain is written only when non-empty.
func (obs *Observation) Append(dst []byte) []byte {
	dst = appendVarintField(dst, obsFieldFlow, obs.Flow)
	dst = appendVarintField(dst, obsFieldTimeNs, uint64(obs.Time.UnixNano()))
	dst = appendVarintField(dst, obsFieldMode, uint64(obs.Mode))
	dst = appendVarintField(dst, obsFieldPolicy, uint64(obs.Policy))
	dst = appendVarintField(dst, obsFieldDir, uint64(obs.Dir))
	dst = appendVarintField(dst, obsFieldWireLen, uint64(obs.WireLen))
	var hs uint64
	if obs.Handshake {
		hs = 1
	}
	dst = appendVarintField(dst, obsFieldHandshake, hs)
	dst = appendVarintField(dst, obsFieldWorkload, uint64(obs.Workload))
	if obs.Domain != "" {
		dst = binary.AppendUvarint(dst, uint64(obsFieldDomain)<<3|wireBytes)
		dst = binary.AppendUvarint(dst, uint64(len(obs.Domain)))
		dst = append(dst, obs.Domain...)
	}
	return dst
}

// Unmarshal decodes a serialized observation, replacing obs's contents.
// Unknown fields are skipped; out-of-range values are rejected with
// ErrObsFieldRange before any allocation, so hostile frames cost at
// most the frame's own length.
func (obs *Observation) Unmarshal(frame []byte) error {
	*obs = Observation{}
	for off := 0; off < len(frame); {
		tag, n, err := readUvarint(frame[off:])
		if err != nil {
			return err
		}
		off += n
		field, wt := int(tag>>3), int(tag&7)
		switch wt {
		case wireVarint:
			v, n, err := readUvarint(frame[off:])
			if err != nil {
				return err
			}
			off += n
			switch field {
			case obsFieldFlow:
				obs.Flow = v
			case obsFieldTimeNs:
				obs.Time = time.Unix(0, int64(v))
			case obsFieldMode:
				if v > uint64(ModeDoQ) {
					return ErrObsFieldRange
				}
				obs.Mode = Mode(v)
			case obsFieldPolicy:
				if v > uint64(PadBlock) {
					return ErrObsFieldRange
				}
				obs.Policy = Policy(v)
			case obsFieldDir:
				if v > uint64(DirResponse) {
					return ErrObsFieldRange
				}
				obs.Dir = Dir(v)
			case obsFieldWireLen:
				if v == 0 || v > MaxWireLen {
					return ErrObsFieldRange
				}
				obs.WireLen = uint32(v)
			case obsFieldHandshake:
				if v > 1 {
					return ErrObsFieldRange
				}
				obs.Handshake = v == 1
			case obsFieldWorkload:
				if v > 1<<16 {
					return ErrObsFieldRange
				}
				obs.Workload = uint32(v)
			}
		case wireBytes:
			l, n, err := readUvarint(frame[off:])
			if err != nil {
				return err
			}
			off += n
			if uint64(len(frame)-off) < l {
				return ErrObsTruncated
			}
			b := frame[off : off+int(l)]
			off += int(l)
			if field == obsFieldDomain {
				if len(b) > MaxDomainLen {
					return ErrObsFieldRange
				}
				obs.Domain = string(b)
			}
		default:
			return ErrObsWireType
		}
	}
	if obs.WireLen == 0 {
		return ErrObsFieldRange
	}
	return nil
}

// DecodeError reports a well-framed but undecodable observation; the
// stream is still in sync and the next Read continues.
type DecodeError struct {
	Err error
}

// Error implements error.
func (e *DecodeError) Error() string { return "encwire: undecodable observation: " + e.Err.Error() }

// Unwrap returns the underlying codec error.
func (e *DecodeError) Unwrap() error { return e.Err }

// Writer serializes observations onto an io.Writer as framed messages,
// reusing the sie stream framing (length prefix, same MaxFrameLen).
type Writer struct {
	w   io.Writer
	buf []byte
	n   uint64
}

// NewWriter returns an observation writer.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Write serializes and frames one observation.
func (ow *Writer) Write(obs *Observation) error {
	ow.buf = obs.Append(ow.buf[:0])
	if err := sie.WriteFrame(ow.w, ow.buf); err != nil {
		return err
	}
	ow.n++
	return nil
}

// Count returns the number of observations written.
func (ow *Writer) Count() uint64 { return ow.n }

// Reader deserializes framed observations from an io.Reader.
type Reader struct {
	fr *sie.FrameReader
	n  uint64
}

// NewReader returns an observation reader.
func NewReader(r io.Reader) *Reader { return &Reader{fr: sie.NewFrameReader(r)} }

// Read decodes the next observation into obs. It returns io.EOF at a
// clean end of stream and a *DecodeError for a well-framed but
// undecodable record (the next Read continues with the following
// frame); other errors mean the stream position is unreliable.
func (or *Reader) Read(obs *Observation) error {
	frame, err := or.fr.Next()
	if err != nil {
		return err
	}
	if err := obs.Unmarshal(frame); err != nil {
		return &DecodeError{Err: err}
	}
	or.n++
	return nil
}

// Count returns the number of observations read.
func (or *Reader) Count() uint64 { return or.n }
