package sie

import (
	"encoding/binary"
	"errors"
	"io"
)

// Errors returned by the wire codec.
var (
	ErrVarintOverflow = errors.New("sie: varint overflows 64 bits")
	ErrTruncatedFrame = errors.New("sie: truncated frame")
	ErrUnknownField   = errors.New("sie: unknown required field")
	ErrFrameTooLarge  = errors.New("sie: frame exceeds size limit")
)

// Protobuf wire types used by the transaction encoding.
const (
	wireVarint = 0
	wireBytes  = 2
)

// readUvarint decodes a varint from b, returning the value and the
// number of bytes consumed (0 with an error on malformed input).
func readUvarint(b []byte) (uint64, int, error) {
	v, n := binary.Uvarint(b)
	switch {
	case n == 0:
		return 0, 0, ErrTruncatedFrame
	case n < 0:
		return 0, 0, ErrVarintOverflow
	}
	return v, n, nil
}

// appendTag appends a field tag.
func appendTag(dst []byte, field int, wt int) []byte {
	return binary.AppendUvarint(dst, uint64(field)<<3|uint64(wt))
}

// appendBytesField appends a length-delimited field.
func appendBytesField(dst []byte, field int, b []byte) []byte {
	dst = appendTag(dst, field, wireBytes)
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// appendVarintField appends a varint field.
func appendVarintField(dst []byte, field int, v uint64) []byte {
	dst = appendTag(dst, field, wireVarint)
	return binary.AppendUvarint(dst, v)
}

// MaxFrameLen bounds a single serialized transaction; two full-size UDP
// datagrams plus metadata fit comfortably.
const MaxFrameLen = 1 << 17

// WriteFrame writes one length-prefixed frame to w.
func WriteFrame(w io.Writer, frame []byte) error {
	if len(frame) > MaxFrameLen {
		return ErrFrameTooLarge
	}
	hdr := binary.AppendUvarint(make([]byte, 0, 5), uint64(len(frame)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(frame)
	return err
}

// FrameReader reads length-prefixed frames from an io.Reader.
type FrameReader struct {
	r       io.Reader
	pending []byte // read-but-unconsumed bytes
	off     int
	chunk   []byte // scratch read buffer
}

// NewFrameReader returns a reader over r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r, chunk: make([]byte, 32<<10)}
}

// Next returns the next frame. The returned slice is valid until the
// following call to Next. It returns io.EOF at a clean end of stream.
func (fr *FrameReader) Next() ([]byte, error) {
	n, err := fr.peekVarint()
	if err != nil {
		return nil, err
	}
	if n > MaxFrameLen {
		return nil, ErrFrameTooLarge
	}
	if err := fr.fill(int(n)); err != nil {
		if err == io.EOF {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	frame := fr.pending[fr.off : fr.off+int(n)]
	fr.off += int(n)
	return frame, nil
}

// peekVarint decodes the length prefix, consuming it.
func (fr *FrameReader) peekVarint() (uint64, error) {
	for {
		v, n, err := readUvarint(fr.pending[fr.off:])
		if err == nil {
			fr.off += n
			return v, nil
		}
		if err != ErrTruncatedFrame {
			return 0, err
		}
		// Need more bytes; a clean EOF with nothing pending ends the stream.
		if ferr := fr.refill(); ferr != nil {
			if ferr == io.EOF && fr.off == len(fr.pending) {
				return 0, io.EOF
			}
			if ferr == io.EOF {
				return 0, io.ErrUnexpectedEOF
			}
			return 0, ferr
		}
	}
}

// fill ensures at least n unconsumed bytes are pending.
func (fr *FrameReader) fill(n int) error {
	for len(fr.pending)-fr.off < n {
		if err := fr.refill(); err != nil {
			return err
		}
	}
	return nil
}

// refill compacts the buffer and reads more data.
func (fr *FrameReader) refill() error {
	if fr.off > 0 {
		fr.pending = fr.pending[:copy(fr.pending, fr.pending[fr.off:])]
		fr.off = 0
	}
	n, err := fr.r.Read(fr.chunk)
	if n > 0 {
		fr.pending = append(fr.pending, fr.chunk[:n]...)
		return nil
	}
	if err == nil {
		err = io.ErrNoProgress
	}
	return err
}
