package cli

import (
	"errors"
	"flag"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dnsobservatory/internal/sie"
	"dnsobservatory/internal/transport"
)

func testTx(i int) *sie.Transaction {
	return &sie.Transaction{
		QueryPacket: []byte{byte(i), 1, 2, 3},
		QueryTime:   time.Unix(1546300800+int64(i), 0),
	}
}

func TestOpen(t *testing.T) {
	r, err := Open("-", strings.NewReader("stdin"))
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := io.ReadAll(r); string(b) != "stdin" || r.Close() != nil {
		t.Fatalf("- read %q", b)
	}
	path := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(path, []byte("file"), 0o644); err != nil {
		t.Fatal(err)
	}
	if r, err = Open(path, nil); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if b, _ := io.ReadAll(r); string(b) != "file" {
		t.Fatalf("file read %q", b)
	}
	if _, err := Open(filepath.Join(t.TempDir(), "missing"), nil); err == nil {
		t.Fatal("missing file opened")
	}
}

func TestFileSinkRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.sie")
	s, err := OpenSink(SinkConfig{Out: path})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s.Emit(testTx(i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r := sie.NewReader(f)
	var tx sie.Transaction
	for r.Read(&tx) == nil {
	}
	if r.Count() != 10 {
		t.Fatalf("read back %d transactions", r.Count())
	}
	if _, err := OpenSink(SinkConfig{Out: filepath.Join(t.TempDir(), "no", "such", "dir")}); err == nil {
		t.Fatal("uncreatable file accepted")
	}
}

type failWriter struct{ n int }

var errFail = errors.New("disk full")

func (w *failWriter) Write(p []byte) (int, error) {
	w.n++
	return 0, errFail
}

// The first error sticks: nothing is written after it, and Close
// returns it — here it surfaces only at the final flush.
func TestSinkKeepsFirstError(t *testing.T) {
	fw := &failWriter{}
	s, err := OpenSink(SinkConfig{Out: filepath.Join(t.TempDir(), "s.sie"), Wrap: func(io.Writer) io.Writer { return fw }})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(testTx(1)); err != nil {
		t.Fatalf("buffered write failed: %v", err)
	}
	if err := s.Close(); !errors.Is(err, errFail) {
		t.Fatalf("Close = %v", err)
	}
	if err := s.Write(testTx(2)); !errors.Is(err, errFail) || fw.n != 1 {
		t.Fatalf("Write after failure = %v, %d writes", err, fw.n)
	}
	var nilSink *Sink[*sie.Transaction]
	if err := nilSink.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSensorSink(t *testing.T) {
	for _, form := range []string{"addr", "fleet"} {
		ln, err := transport.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		coll := transport.NewCollector(transport.CollectorConfig{})
		go coll.Serve(ln)
		got := make(chan int)
		go func() {
			n := 0
			for range coll.C() {
				n++
			}
			got <- n
		}()
		connect := ln.Addr().String()
		if form == "fleet" {
			connect = "A=" + connect + ", B=127.0.0.1:1"
		}
		s, err := OpenSink(SinkConfig{Connect: connect, Sensor: "edge-1"})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if err := s.Write(testTx(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		// Close returned once the collector acknowledged all five. In the
		// fleet form B does not answer, so A takes edge-1 either way.
		coll.Close()
		if n := <-got; n != 5 {
			t.Fatalf("%s: collector got %d transactions", form, n)
		}
	}
	if _, err := OpenSink(SinkConfig{Connect: "A=h:1,B"}); err == nil {
		t.Fatal("bad fleet list accepted")
	}
}

func TestServe(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", http.NotFoundHandler())
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	if _, err := Serve(busy.Addr().String(), http.NotFoundHandler()); err == nil {
		t.Fatal("busy address accepted")
	}
}

func TestExit(t *testing.T) {
	for _, c := range []struct {
		err  error
		code int
	}{
		{nil, 0},
		{flag.ErrHelp, 0},
		{Usage(flag.ErrHelp), 0},
		{Usage(errors.New("flag provided but not defined: -x")), 2},
		{errors.New("disk full"), 1},
	} {
		if got := Exit("test", c.err); got != c.code {
			t.Errorf("Exit(%v) = %d, want %d", c.err, got, c.code)
		}
	}
}
