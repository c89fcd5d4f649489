package tsv

import (
	"bytes"
	"testing"
)

func modeSnap(start int64, windows int, ttl float64) *Snapshot {
	return &Snapshot{
		Aggregation: "x", Level: Minutely, Start: start,
		Columns: []string{"hits", "ttl1"},
		Kinds:   []Kind{Counter, Mode},
		Rows:    []Row{{Key: "k", Values: []float64{10, ttl}}},
		Windows: windows,
	}
}

func TestModeAggregation(t *testing.T) {
	// Seven windows at TTL 300, three at 86400: the mode is 300, never
	// some meaningless average.
	var snaps []*Snapshot
	for i := 0; i < 7; i++ {
		snaps = append(snaps, modeSnap(int64(i)*60, 1, 300))
	}
	for i := 7; i < 10; i++ {
		snaps = append(snaps, modeSnap(int64(i)*60, 1, 86400))
	}
	out := queryAll(t, snaps...)
	k := out.Find("k")
	if v, _ := out.Value(k, "ttl1"); v != 300 {
		t.Errorf("ttl1 = %v, want mode 300", v)
	}
}

func TestModeAggregationWeightsByWindows(t *testing.T) {
	// One pre-aggregated file of 10 windows at 60 beats 4 files at 600.
	snaps := []*Snapshot{modeSnap(0, 10, 60)}
	for i := 1; i <= 4; i++ {
		snaps = append(snaps, modeSnap(int64(i)*600, 1, 600))
	}
	out := queryAll(t, snaps...)
	if v, _ := out.Value(out.Find("k"), "ttl1"); v != 60 {
		t.Errorf("ttl1 = %v, want 60 (10 windows vs 4)", v)
	}
}

func TestModeTieBreaksLow(t *testing.T) {
	out := queryAll(t, modeSnap(0, 1, 600), modeSnap(60, 1, 60))
	if v, _ := out.Value(out.Find("k"), "ttl1"); v != 60 {
		t.Errorf("tie = %v, want 60", v)
	}
}

func TestModeKindSurvivesRoundTrip(t *testing.T) {
	s := modeSnap(0, 1, 300)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("#kind\tc\tm\n")) {
		t.Errorf("kind row:\n%s", buf.String())
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kinds[1] != Mode {
		t.Errorf("kinds = %v", got.Kinds)
	}
}
