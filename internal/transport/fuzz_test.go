package transport

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"dnsobservatory/internal/sie"
	"time"
)

// FuzzReadFrame throws arbitrary byte streams at the frame decoder. The
// contract under attack: Next never panics, never allocates beyond
// MaxFramePayload for a single frame no matter what length the prefix
// declares, and every malformed stream maps to a typed error —
// io.ErrUnexpectedEOF for truncation, ErrFrameTooLarge for oversized
// declared lengths, ErrVarintOverflow for unterminated varints,
// ErrUnknownFrameType for unknown envelope types.
func FuzzReadFrame(f *testing.F) {
	// Well-formed streams.
	f.Add(AppendHelloEpoch(nil, "seed", 1))
	tx := &sie.Transaction{QueryPacket: []byte("q"), QueryTime: time.Unix(1, 0)}
	f.Add(AppendFrame(AppendHelloEpoch(nil, "s", 1<<63), frameOpaque, tx.Append(nil)))
	f.Add(AppendFrame(nil, FrameHello, append([]byte{1}, "v1"...))) // the retired epoch-less hello
	f.Add(AppendFrame(nil, FrameBye, nil))
	f.Add(AppendSeqData(AppendHelloEpoch(nil, "s2", 77), 9, tx.Append(nil)))
	f.Add(AppendAck(nil, 1<<40))
	// Malformed seeds steering the fuzzer at each error path.
	f.Add([]byte{frameOpaque})                               // missing length
	f.Add([]byte{frameOpaque, 0x80})                         // truncated varint
	f.Add([]byte{frameOpaque, 0x10, 'x'})                    // mid-frame EOF
	f.Add([]byte{frameOpaque, 0x80, 0x80, 0x80, 0x80, 0x01}) // oversized length
	f.Add([]byte{0x7f, 0x00})                                // unknown type
	f.Add(bytes.Repeat([]byte{0xff}, 12))                    // varint overflow
	f.Add(AppendFrame(nil, frameOpaque, bytes.Repeat([]byte("p"), 4096))[:100])

	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bytes.NewReader(data))
		var consumed int
		for {
			typ, payload, err := fr.Next()
			if err != nil {
				switch {
				case errors.Is(err, io.EOF),
					errors.Is(err, io.ErrUnexpectedEOF),
					errors.Is(err, ErrFrameTooLarge),
					errors.Is(err, ErrVarintOverflow),
					errors.Is(err, ErrUnknownFrameType):
					return
				default:
					t.Fatalf("untyped error from decoder: %v", err)
				}
			}
			if len(payload) > MaxFramePayload {
				t.Fatalf("decoder over-allocated: %d-byte payload", len(payload))
			}
			if typ < FrameHello || typ > FrameAck {
				t.Fatalf("decoder returned unknown type %#x without error", typ)
			}
			// Payload parsers must succeed or fail with typed errors too.
			switch typ {
			case FrameHello:
				name, epoch, err := ParseHello(payload)
				if err != nil && !errors.Is(err, ErrBadHello) && !errors.Is(err, ErrBadVersion) {
					t.Fatalf("untyped hello error: %v", err)
				}
				if err == nil && (epoch == 0 || name == "") {
					t.Fatalf("hello accepted with name %q, epoch %d: dedup is keyed on both", name, epoch)
				}
			case FrameSeqData:
				if _, _, err := ParseSeqData(payload); err != nil &&
					!errors.Is(err, ErrVarintOverflow) {
					t.Fatalf("untyped seq-data error: %v", err)
				}
			case FrameAck:
				if _, err := ParseAck(payload); err != nil &&
					!errors.Is(err, ErrVarintOverflow) {
					t.Fatalf("untyped ack error: %v", err)
				}
			}
			consumed++
			if consumed > len(data)+1 {
				t.Fatalf("decoder emitted %d frames from %d bytes", consumed, len(data))
			}
		}
	})
}
