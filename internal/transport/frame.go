package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
)

// The sensor→collector stream is a sequence of typed, length-prefixed
// frames:
//
//	[type: 1 byte][payload length: uvarint][payload]
//
// The first frame on every connection must be a Hello; after it the
// sensor streams SeqData frames (each carrying one serialized
// sie.Transaction) and optionally ends with a Bye, while the collector
// answers with Ack frames. A clean EOF on a frame boundary is
// equivalent to a Bye.
const (
	// FrameHello opens a connection. Its payload is [2][epoch: uvarint]
	// [sensor name], where the non-zero epoch identifies the sensor
	// incarnation for effectively-once dedup. The collector rejects any
	// other version — 1 was the epoch-less hello, which no sender has
	// used since every frame got a sequence number.
	FrameHello = 0x01
	// 0x02 is reserved: it was the unsequenced Data frame, which no
	// sender used. The number is never reused; a peer that sends it
	// violates the protocol.
	// FrameBye marks a clean end of stream; its payload is empty.
	FrameBye = 0x03
	// FrameSeqData carries [seq: uvarint][serialized sie.Transaction].
	// seq starts at 1 and increases by 1 per transaction within one
	// (sensor, epoch); the collector dedups replays and retransmits on
	// it and acknowledges delivery with Ack frames.
	FrameSeqData = 0x04
	// FrameAck flows collector→sensor: [seq: uvarint] acknowledges
	// every sequenced frame with seq' <= seq as durably accepted
	// (journaled and synced when the collector runs a WAL, enqueued
	// otherwise). The sensor prunes its retransmit buffer on it.
	FrameAck = 0x05
)

// ProtocolVersionSeq is the hello version: sequenced delivery, the
// sensor epoch in the handshake.
const ProtocolVersionSeq = 2

// MaxFramePayload bounds a single frame payload. It matches
// sie.MaxFrameLen — a Data payload is exactly one sie transaction
// message — and caps what a decoder will ever allocate for one frame.
const MaxFramePayload = 1 << 17

// MaxHelloName bounds the sensor name carried in a Hello payload.
const MaxHelloName = 256

// Errors returned by the frame codec. All malformed input maps to one
// of these (or io.EOF / io.ErrUnexpectedEOF for clean / mid-frame
// stream ends) — the decoder never panics and never allocates more
// than MaxFramePayload for a frame, whatever length the prefix claims.
var (
	ErrFrameTooLarge    = errors.New("transport: frame exceeds size limit")
	ErrUnknownFrameType = errors.New("transport: unknown frame type")
	ErrVarintOverflow   = errors.New("transport: length prefix overflows 64 bits")
	ErrBadHello         = errors.New("transport: malformed hello frame")
	ErrBadVersion       = errors.New("transport: unsupported protocol version")
)

// AppendFrame appends one frame to dst. The caller is responsible for
// keeping len(payload) within MaxFramePayload (Sensor.Write checks).
func AppendFrame(dst []byte, typ byte, payload []byte) []byte {
	dst = append(dst, typ)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...)
}

// AppendHelloEpoch appends a Hello frame carrying the sensor name and
// its incarnation epoch.
func AppendHelloEpoch(dst []byte, name string, epoch uint64) []byte {
	payload := make([]byte, 0, 1+binary.MaxVarintLen64+len(name))
	payload = append(payload, ProtocolVersionSeq)
	payload = binary.AppendUvarint(payload, epoch)
	payload = append(payload, name...)
	return AppendFrame(dst, FrameHello, payload)
}

// ParseHello decodes a Hello payload into the sensor name and epoch,
// neither of which is ever empty or zero when err is nil: dedup is keyed
// on both.
func ParseHello(payload []byte) (name string, epoch uint64, err error) {
	if len(payload) < 2 {
		return "", 0, ErrBadHello
	}
	if payload[0] != ProtocolVersionSeq {
		return "", 0, ErrBadVersion
	}
	epoch, n := binary.Uvarint(payload[1:])
	if n <= 0 || epoch == 0 {
		return "", 0, ErrBadHello
	}
	payload = payload[1+n:]
	if len(payload) == 0 || len(payload) > MaxHelloName {
		return "", 0, ErrBadHello
	}
	return string(payload), epoch, nil
}

// AppendSeqData appends a sequenced Data frame: seq, then the
// serialized transaction bytes.
func AppendSeqData(dst []byte, seq uint64, tx []byte) []byte {
	dst = append(dst, FrameSeqData)
	var pre [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(pre[:], seq)
	dst = binary.AppendUvarint(dst, uint64(n+len(tx)))
	dst = append(dst, pre[:n]...)
	return append(dst, tx...)
}

// ParseSeqData splits a SeqData payload into the sequence number and
// the transaction bytes.
func ParseSeqData(payload []byte) (seq uint64, tx []byte, err error) {
	seq, n := binary.Uvarint(payload)
	if n <= 0 {
		return 0, nil, ErrVarintOverflow
	}
	return seq, payload[n:], nil
}

// AppendAck appends an Ack frame for the cumulative sequence number.
func AppendAck(dst []byte, seq uint64) []byte {
	var pre [binary.MaxVarintLen64]byte
	return AppendFrame(dst, FrameAck, binary.AppendUvarint(pre[:0], seq))
}

// ParseAck decodes an Ack payload.
func ParseAck(payload []byte) (seq uint64, err error) {
	seq, n := binary.Uvarint(payload)
	if n <= 0 || n != len(payload) {
		return 0, ErrVarintOverflow
	}
	return seq, nil
}

// FrameReader decodes frames from a stream through one per-connection
// read buffer. The payload slice returned by Next is reused by the
// following call.
type FrameReader struct {
	br  *bufio.Reader
	buf []byte
}

// NewFrameReader returns a reader over r with a fresh read buffer.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{br: bufio.NewReaderSize(r, 64<<10)}
}

// Buffered reports the bytes already read from the connection but not
// yet consumed as frames — 0 means the next Next would hit the wire.
// The collector uses it to flush pending acks before blocking.
func (fr *FrameReader) Buffered() int { return fr.br.Buffered() }

// Next returns the next frame. It returns io.EOF at a clean end of
// stream (between frames) and io.ErrUnexpectedEOF when the stream ends
// inside a frame; all other malformed input returns one of the typed
// codec errors above. The payload is valid until the next call.
func (fr *FrameReader) Next() (typ byte, payload []byte, err error) {
	typ, err = fr.br.ReadByte()
	if err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, err
	}
	if typ < FrameHello || typ > FrameAck {
		return 0, nil, ErrUnknownFrameType
	}
	n, err := fr.readUvarint()
	if err != nil {
		return 0, nil, err
	}
	if n > MaxFramePayload {
		return 0, nil, ErrFrameTooLarge
	}
	// The allocation is bounded by the check above, no matter what the
	// prefix claimed.
	if cap(fr.buf) < int(n) {
		fr.buf = make([]byte, n)
	}
	payload = fr.buf[:n]
	if _, err := io.ReadFull(fr.br, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return typ, payload, nil
}

// readUvarint decodes a length prefix. A stream ending inside the
// varint is io.ErrUnexpectedEOF — a frame had started with the type
// byte already consumed. (binary.ReadUvarint would do but for its
// overflow error, which is unexported: the typed ErrVarintOverflow
// could not be told apart from an I/O error through it.)
func (fr *FrameReader) readUvarint() (uint64, error) {
	var v uint64
	var shift uint
	for {
		c, err := fr.br.ReadByte()
		if err != nil {
			if err == io.EOF {
				return 0, io.ErrUnexpectedEOF
			}
			return 0, err
		}
		if shift >= 64 || (shift == 63 && c > 1) {
			return 0, ErrVarintOverflow
		}
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
		shift += 7
	}
}

// SplitAddr parses a listen/dial address into (network, address):
// "unix:/path" selects a Unix socket, "tcp:host:port" is explicit TCP,
// and a bare "host:port" defaults to TCP.
func SplitAddr(addr string) (network, address string) {
	const unixPrefix, tcpPrefix = "unix:", "tcp:"
	switch {
	case len(addr) > len(unixPrefix) && addr[:len(unixPrefix)] == unixPrefix:
		return "unix", addr[len(unixPrefix):]
	case len(addr) > len(tcpPrefix) && addr[:len(tcpPrefix)] == tcpPrefix:
		return "tcp", addr[len(tcpPrefix):]
	default:
		return "tcp", addr
	}
}
