// Fuzz targets for the wire codec, in an external test package so the
// seed corpus can be drawn from simnet traffic (simnet imports dnswire,
// so the targets cannot live in package dnswire itself).
package dnswire_test

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"dnsobservatory/internal/dnswire"
	"dnsobservatory/internal/ipwire"
	"dnsobservatory/internal/sie"
	"dnsobservatory/internal/simnet"
)

// fuzzSeeds extracts raw DNS payloads from a small deterministic simnet
// run: real-shaped queries and responses (compression, EDNS, DNSSEC,
// truncation, NXDOMAIN) exercise far more of the codec than hand-rolled
// seeds would.
var fuzzSeeds = sync.OnceValue(func() [][]byte {
	cfg := simnet.DefaultConfig()
	cfg.Duration = 2
	cfg.QPS = 400
	cfg.Resolvers = 20
	cfg.SLDs = 200
	sim := simnet.New(cfg)
	var seeds [][]byte
	const maxSeeds = 64
	sim.Run(func(tx *sie.Transaction) {
		for _, pkt := range [][]byte{tx.QueryPacket, tx.ResponsePacket} {
			if len(seeds) >= maxSeeds || len(pkt) == 0 {
				continue
			}
			p, _, err := ipwire.DecodeAny(pkt)
			if err != nil {
				continue
			}
			seeds = append(seeds, bytes.Clone(p.Payload))
		}
	})
	return seeds
})

// FuzzUnpackMessage asserts that Unpack never panics, and that any
// message it accepts survives a Pack/Unpack round trip with its section
// counts intact.
func FuzzUnpackMessage(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var m dnswire.Message
		if err := m.Unpack(data); err != nil {
			return
		}
		// Accepted messages must re-encode; names that Unpack produced can
		// legitimately be un-encodable (a wire label may contain '.', which
		// presentation form cannot express), so a Pack error is a skip, not
		// a failure.
		packed, err := m.Pack(nil)
		if err != nil {
			return
		}
		var m2 dnswire.Message
		if err := m2.Unpack(packed); err != nil {
			t.Fatalf("repacked message rejected: %v\noriginal: %x\npacked: %x", err, data, packed)
		}
		if len(m2.Questions) != len(m.Questions) ||
			len(m2.Answers) != len(m.Answers) ||
			len(m2.Authority) != len(m.Authority) ||
			len(m2.Additional) != len(m.Additional) {
			t.Fatalf("section counts changed across round trip: %d/%d/%d/%d -> %d/%d/%d/%d",
				len(m.Questions), len(m.Answers), len(m.Authority), len(m.Additional),
				len(m2.Questions), len(m2.Answers), len(m2.Authority), len(m2.Additional))
		}
	})
}

// FuzzReadName asserts that ReadName never panics, stays in bounds,
// agrees with ReadNameTo, and that every name it accepts is canonical
// and (when encodable) survives an AppendName/ReadName round trip.
func FuzzReadName(f *testing.F) {
	for _, s := range fuzzSeeds() {
		if len(s) > dnswire.HeaderLen {
			f.Add(s[dnswire.HeaderLen:]) // question-section name at offset 0
		}
	}
	f.Add([]byte{3, 'w', 'w', 'w', 7, 'e', 'x', 'a', 'm', 'p', 'l', 'e', 3, 'c', 'o', 'm', 0})
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		name, end, err := dnswire.ReadName(data, 0)
		var buf [255]byte
		for i := range buf {
			buf[i] = 0xff // what a buffer holds from an earlier name
		}
		to, toEnd, toErr := dnswire.ReadNameTo(&buf, data, 0)
		if string(to) != name || toEnd != end || toErr != err {
			t.Fatalf("ReadNameTo = %q, %d, %v; ReadName = %q, %d, %v", to, toEnd, toErr, name, end, err)
		}
		if err != nil {
			return
		}
		if end <= 0 || end > len(data) {
			t.Fatalf("end %d out of bounds for %d-byte input", end, len(data))
		}
		if name != "." && (len(name) > 256 || name[len(name)-1] != '.') {
			t.Fatalf("non-canonical name %q (len %d)", name, len(name))
		}
		if name != dnswire.Canonical(name) {
			t.Fatalf("name %q is not canonical", name)
		}
		if strings.Contains(name, "..") {
			// A wire label ending in '.' yields "..", which presentation
			// form cannot express; AppendName would silently re-split it.
			return
		}
		wire, err := dnswire.AppendName(nil, name, nil)
		if err != nil {
			return // e.g. a label over 63 octets assembled via pointers
		}
		name2, _, err := dnswire.ReadName(wire, 0)
		if err != nil {
			t.Fatalf("re-reading re-encoded name %q: %v", name, err)
		}
		if name2 != name {
			t.Fatalf("round trip changed name: %q -> %q", name, name2)
		}
	})
}
