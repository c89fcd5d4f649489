package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"dnsobservatory/internal/sie"
	"dnsobservatory/internal/simnet"
)

const windowSec = 60

// pool is the seeded input every workload replays: one simnet run kept
// both as the framed byte stream a dnsgen -o file would hold and as
// decoded transactions (their packet slices alias the stream).
type pool struct {
	seed   int64
	stream []byte
	txs    []sie.Transaction
	// nows[i] is txs[i]'s stream time in seconds from the first
	// transaction's minute, exactly as dnsobs computes it.
	nows []float64
	// windows is how many minutely windows the pool spans.
	windows int
	// genTime is the simnet + encode share of the build, for
	// simnet.gen_us_per_tx.
	genTime time.Duration
}

// simConfig is the generator's configuration: simnet defaults at the
// given duration and rate, Seed = seed.
func simConfig(seed int64, duration, qps float64) simnet.Config {
	cfg := simnet.DefaultConfig()
	cfg.Duration = duration
	cfg.QPS = qps
	cfg.Seed = seed
	return cfg
}

// buildPool runs the generator. The same configuration gives the same
// bytes.
func buildPool(cfg simnet.Config) (*pool, error) {
	start := time.Now()
	var buf bytes.Buffer
	w := sie.NewWriter(&buf)
	var werr error
	simnet.New(cfg).Run(func(tx *sie.Transaction) {
		if werr == nil {
			werr = w.Write(tx)
		}
	})
	if werr != nil {
		return nil, fmt.Errorf("encode pool: %w", werr)
	}
	// An exact-size copy: the buffer's doubled capacity would otherwise
	// count as live heap and move the GC's pacing with the seed.
	p := &pool{seed: cfg.Seed, stream: bytes.Clone(buf.Bytes()), genTime: time.Since(start)}
	buf = bytes.Buffer{}

	n := int(w.Count())
	p.txs = make([]sie.Transaction, n)
	p.nows = make([]float64, n)
	var base time.Time
	wt := windowTracker{}
	off := 0
	for i := 0; i < n; i++ {
		frame, next, err := nextFrame(p.stream, off)
		if err != nil {
			return nil, fmt.Errorf("decode pool frame %d: %w", i, err)
		}
		off = next
		if err := p.txs[i].Unmarshal(frame); err != nil {
			return nil, fmt.Errorf("decode pool transaction %d: %w", i, err)
		}
		if base.IsZero() {
			base = p.txs[i].QueryTime.Truncate(time.Minute)
		}
		p.nows[i] = p.txs[i].QueryTime.Sub(base).Seconds()
		if _, crossed := wt.cross(p.nows[i]); crossed || i == 0 {
			p.windows++
		}
	}
	if off != len(p.stream) {
		return nil, fmt.Errorf("decode pool: %d trailing bytes", len(p.stream)-off)
	}
	if n == 0 {
		return nil, fmt.Errorf("empty pool")
	}
	return p, nil
}

// nextFrame returns the varint-length-prefixed frame at stream[off:]
// without copying, and the offset just past it.
func nextFrame(stream []byte, off int) (frame []byte, next int, err error) {
	n, w := binary.Uvarint(stream[off:])
	if w <= 0 || uint64(len(stream)-off-w) < n {
		return nil, 0, io.ErrUnexpectedEOF
	}
	off += w
	return stream[off : off+int(n)], off + int(n), nil
}

// windowTracker mirrors the engines' window rollover (observatory.
// Pipeline.Ingest): the window opens at the first transaction's time
// rounded down, a time before the open window is clamped into it, and a
// time at or past its end closes it.
type windowTracker struct {
	started bool
	start   float64
}

// cross reports whether a transaction at stream time now closes the
// open window, and if so which window start it closes. The harness
// calls it just before handing the system that transaction, which is
// the instant publish lag is measured from.
func (w *windowTracker) cross(now float64) (closed int64, ok bool) {
	if !w.started {
		// The engine's own arithmetic, now - mod(now, WindowSec), so the
		// two agree to the last bit on where a window ends.
		w.start = now - (now - float64(int64(now/windowSec))*windowSec)
		w.started = true
		return 0, false
	}
	if now < w.start+windowSec {
		return 0, false
	}
	closed = int64(w.start)
	for now >= w.start+windowSec {
		w.start += windowSec
	}
	return closed, true
}
