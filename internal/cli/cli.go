package cli

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"

	"dnsobservatory/internal/fleet"
	"dnsobservatory/internal/sie"
	"dnsobservatory/internal/transport"
)

// Open opens path for reading; "-" is stdin, which closing leaves open.
func Open(path string, stdin io.Reader) (io.ReadCloser, error) {
	if path == "-" {
		return io.NopCloser(stdin), nil
	}
	return os.Open(path)
}

// Create opens path for buffered writing; "-" is stdout. wrap, when
// set, wraps the file under the buffer, so the faults it injects hit
// the real write path. close flushes, then closes the file.
func Create(path string, wrap func(io.Writer) io.Writer) (w io.Writer, close func() error, err error) {
	var f *os.File
	var dst io.Writer = os.Stdout
	if path != "-" {
		if f, err = os.Create(path); err != nil {
			return nil, nil, err
		}
		dst = f
	}
	if wrap != nil {
		dst = wrap(dst)
	}
	bw := bufio.NewWriterSize(dst, 1<<20)
	return bw, func() error {
		if err := bw.Flush(); err != nil || f == nil {
			return err
		}
		return f.Close()
	}, nil
}

// Sink is a stream of records on its way to one destination. Write
// keeps the first error and drops every record after it; Close
// delivers what is buffered and returns that first error, so a stream
// cut short never reads as a success. Not safe for concurrent use.
type Sink[T any] struct {
	write func(T) error
	close func() error
	err   error
}

// NewSink returns a sink that writes through write and closes through
// close.
func NewSink[T any](write func(T) error, close func() error) *Sink[T] {
	return &Sink[T]{write: write, close: close}
}

// SinkConfig says where a transaction stream goes: to Connect — one
// collector (host:port, tcp:host:port or unix:/path) or a fleet,
// "name=addr,…", routed by consistent hash of the Sensor name with
// failover — when set, else to the framed file Out, as Create opens it
// with Wrap.
type SinkConfig struct {
	Out, Connect, Sensor, WALDir string
	Wrap                         func(io.Writer) io.Writer
}

// OpenSink opens the transaction sink cfg names.
func OpenSink(cfg SinkConfig) (*Sink[*sie.Transaction], error) {
	if cfg.Connect == "" {
		w, closeFile, err := Create(cfg.Out, cfg.Wrap)
		if err != nil {
			return nil, err
		}
		return NewSink(sie.NewWriter(w).Write, closeFile), nil
	}
	sc := transport.SensorConfig{Addr: strings.TrimSpace(cfg.Connect), Name: cfg.Sensor, WALDir: cfg.WALDir}
	if strings.ContainsAny(cfg.Connect, "=,") {
		members, err := fleet.ParseMembers(cfg.Connect)
		if err != nil {
			return nil, fmt.Errorf("-connect: %w", err)
		}
		rt := fleet.NewRouter(fleet.RouterConfig{})
		for name, addr := range members {
			rt.SetNode(name, addr)
		}
		sc.Dial = rt.DialFunc(cfg.Sensor)
	}
	sensor := transport.NewSensor(sc)
	return NewSink(sensor.Write, sensor.Close), nil
}

// Write sends one record unless an earlier one failed, and returns the
// first error.
func (s *Sink[T]) Write(rec T) error {
	if s.err == nil {
		s.err = s.write(rec)
	}
	return s.err
}

// Emit is Write for the callbacks of a simulation or a probe engine,
// which have no error to return; Close reports it.
func (s *Sink[T]) Emit(rec T) { s.Write(rec) }

// Close delivers what is buffered — a file is flushed, a sensor waits
// for the collector's acknowledgements — and returns the first error.
// A nil Sink closes without error.
func (s *Sink[T]) Close() error {
	if s == nil {
		return nil
	}
	if err := s.close(); s.err == nil {
		s.err = err
	}
	return s.err
}

// Serve serves h on addr once it listens, so a busy or malformed
// address is the caller's error, not a log line from a goroutine.
func Serve(addr string, h http.Handler) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	return srv, nil
}

// usage marks a mistake on the command line.
type usage struct{ error }

func (u usage) Unwrap() error { return u.error }

// Usage marks err — a flag parse error, a missing argument — as a
// mistake on the command line, for which Exit returns 2.
func Usage(err error) error { return usage{err} }

// Exit prints run's error under the command name and returns the code
// main passes to os.Exit: 0 for success and -h, 2 for a Usage error (as
// the flag package exits for its own), 1 for any other failure.
func Exit(name string, err error) int {
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
	if errors.As(err, new(usage)) {
		return 2
	}
	return 1
}
