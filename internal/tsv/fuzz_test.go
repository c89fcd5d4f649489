package tsv

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
)

// fuzzSnapshotSeed serializes a representative snapshot for the corpus.
func fuzzSnapshotSeed() []byte {
	s := &Snapshot{
		Aggregation: "qname",
		Level:       Minutely,
		Start:       60,
		Columns:     []string{"hits", "rtt_avg", "popular_type"},
		Kinds:       []Kind{Counter, Gauge, Mode},
		Rows: []Row{
			{Key: "example.com.", Values: []float64{120, 3.5, 1}},
			{Key: "x\\ttricky", Values: []float64{1, 0.25, 28}},
		},
		TotalBefore: 500,
		TotalAfter:  480,
		Windows:     3,
	}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzParseSnapshot asserts that Read never panics and that every file
// it accepts survives a WriteTo/Read round trip — the property Cascade
// relies on when re-aggregating stored files.
func FuzzParseSnapshot(f *testing.F) {
	f.Add(fuzzSnapshotSeed())
	f.Add([]byte("#key\thits\n#kind\tc\na\t1\n#stats\ttotal_before=1\ttotal_after=1\twindows=1\n"))
	f.Add([]byte(""))
	f.Add([]byte("#stats\ttotal_before=1\ttotal_after=1\twindows=1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Fatalf("accepted snapshot does not re-serialize: %v", err)
		}
		s2, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-written snapshot rejected: %v\ninput: %q\nrewritten: %q", err, data, buf.String())
		}
		if len(s2.Rows) != len(s.Rows) || len(s2.Columns) != len(s.Columns) {
			t.Fatalf("round trip changed shape: %d rows/%d cols -> %d rows/%d cols",
				len(s.Rows), len(s.Columns), len(s2.Rows), len(s2.Columns))
		}
		if s2.TotalBefore != s.TotalBefore || s2.TotalAfter != s.TotalAfter || s2.Windows != s.Windows {
			t.Fatalf("round trip changed stats: %d/%d/%d -> %d/%d/%d",
				s.TotalBefore, s.TotalAfter, s.Windows,
				s2.TotalBefore, s2.TotalAfter, s2.Windows)
		}
		for i := range s.Rows {
			if strings.ContainsAny(s.Rows[i].Key, "\t\n") {
				continue // key with structural bytes cannot round-trip verbatim
			}
			if s2.Rows[i].Key != s.Rows[i].Key {
				t.Fatalf("row %d key changed: %q -> %q", i, s.Rows[i].Key, s2.Rows[i].Key)
			}
		}
	})
}

// fuzzColumnarSeed encodes a representative snapshot in columnar form.
func fuzzColumnarSeed() []byte {
	s := &Snapshot{
		Aggregation: "qname",
		Level:       Minutely,
		Start:       60,
		Columns:     []string{"hits", "rtt_avg", "popular_type"},
		Kinds:       []Kind{Counter, Gauge, Mode},
		Rows: []Row{
			{Key: "example.com.", Values: []float64{120, 3.5, 1}},
			{Key: "example.org.", Values: []float64{1, 0.25, 28}},
			{Key: "example.com.", Values: []float64{7, 1.5, 1}},
		},
		TotalBefore: 500,
		TotalAfter:  480,
		Windows:     3,
	}
	var buf bytes.Buffer
	if _, err := EncodeColumnar(s, &buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzDecodeColumnar asserts the columnar decoder's hostile-input
// contract: arbitrary bytes must never panic or over-allocate, every
// rejection must be the typed ErrBadColumnar, and every accepted file
// must survive an encode/decode round trip bit-exactly.
func FuzzDecodeColumnar(f *testing.F) {
	seed := fuzzColumnarSeed()
	f.Add(seed)
	f.Add(seed[:len(seed)/2])    // truncated mid-file
	f.Add(seed[:len(colMagic)])  // header only
	f.Add([]byte(colMagic))      // magic with nothing after
	f.Add([]byte("DNSC1\n\x00")) // zero cols
	f.Add([]byte(""))
	f.Add([]byte("#key\thits\n"))         // TSV header, wrong format
	f.Add(bytes.Repeat([]byte{0xff}, 32)) // hostile lengths
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeColumnar(data)
		if err != nil {
			if !errors.Is(err, ErrBadColumnar) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if _, err := EncodeColumnar(s, &buf); err != nil {
			t.Fatalf("accepted snapshot does not re-encode: %v", err)
		}
		s2, err := DecodeColumnar(buf.Bytes())
		if err != nil {
			t.Fatalf("re-encoded snapshot rejected: %v", err)
		}
		if len(s2.Rows) != len(s.Rows) || len(s2.Columns) != len(s.Columns) {
			t.Fatalf("round trip changed shape: %d rows/%d cols -> %d rows/%d cols",
				len(s.Rows), len(s.Columns), len(s2.Rows), len(s2.Columns))
		}
		for i := range s.Rows {
			if s2.Rows[i].Key != s.Rows[i].Key {
				t.Fatalf("row %d key changed: %q -> %q", i, s.Rows[i].Key, s2.Rows[i].Key)
			}
			for j := range s.Rows[i].Values {
				a, b := s.Rows[i].Values[j], s2.Rows[i].Values[j]
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("row %d col %d changed: %v -> %v", i, j, a, b)
				}
			}
		}
		// Projection over the accepted file must also hold its own
		// contract: typed errors, no panics.
		if len(s.Columns) > 0 {
			if _, err := decodeColumnar(data, &Projection{Columns: s.Columns[:1]}); err != nil && !errors.Is(err, ErrBadColumnar) {
				t.Fatalf("untyped projection error: %v", err)
			}
		}
	})
}
