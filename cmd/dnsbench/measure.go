package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocCounters is the process-wide cumulative heap allocation count.
// runtime/metrics reads it without stopping the world, so the traced
// run can sample it per stage.
type allocCounters struct {
	objects uint64
	bytes   uint64
}

func readAllocs() allocCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return allocCounters{objects: s[0].Value.Uint64(), bytes: s[1].Value.Uint64()}
}

func (a allocCounters) sub(b allocCounters) allocCounters {
	return allocCounters{objects: a.objects - b.objects, bytes: a.bytes - b.bytes}
}

// residentMB returns the process's resident set from /proc/self/statm.
func residentMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(b))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// rssSampler tracks the peak resident set from the moment it starts:
// VmHWM would do the same without a goroutine, but it cannot be reset,
// and the high-water mark of a process that has just built its own
// input says more about the generator than about the system under test.
type rssSampler struct {
	quit    chan struct{}
	done    chan float64
	stopped bool
	peak    float64
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{quit: make(chan struct{}), done: make(chan float64, 1)}
	go func(quit <-chan struct{}) {
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		peak := residentMB()
		for {
			select {
			case <-quit:
				s.done <- max(peak, residentMB())
				return
			case <-tick.C:
				peak = max(peak, residentMB())
			}
		}
	}(s.quit)
	return s
}

// stop ends the sampling, waits for the sampler to exit and returns the
// peak; later calls return the same value.
func (s *rssSampler) stop() float64 {
	if !s.stopped {
		s.stopped = true
		close(s.quit)
		s.peak = <-s.done
	}
	return s.peak
}

// quantile returns the q-quantile of vals by linear interpolation
// between order statistics; vals need not be sorted. 0 for no samples.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// calibrate times a frozen integer kernel. Its result moves with the
// machine's speed at that moment and with nothing in the repository, so
// a run whose calib_ms is off had a slow or busy box under it.
func calibrate() time.Duration {
	start := time.Now()
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < 1<<22; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink.Store(x) // keeps the loop alive; atomic because tests run in parallel
	return time.Since(start)
}

var calibSink atomic.Uint64

// dirDigest hashes every regular file under dir (names, then contents,
// in name order) and totals their sizes: the store-content identity the
// correctness gate compares across rounds.
func dirDigest(dir string) (digest string, size int64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", 0, err
	}
	h := sha256.New()
	for _, e := range entries { // ReadDir sorts by name
		if !e.Type().IsRegular() {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return "", 0, err
		}
		fmt.Fprintf(h, "%s\n", e.Name())
		n, err := io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", 0, err
		}
		fmt.Fprintf(h, "\n%d\n", n)
		size += n
	}
	return hex.EncodeToString(h.Sum(nil)), size, nil
}

// pyQuantile is cut point i (1..3) of Python's
// statistics.quantiles(vals, n=4), the default exclusive method.
func pyQuantile(vals []float64, i int) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	const n = 4
	ld := len(s)
	m := ld + 1
	j := i * m / n
	j = max(1, min(j, ld-1))
	delta := float64(i*m - j*n)
	return (s[j-1]*(n-delta) + s[j]*delta) / n
}

// pySpread is (Q3-Q1)/median with the quartiles of Python's
// statistics.quantiles(values, n=4), which is what the benchmark's
// acceptance check computes.
func pySpread(vals []float64) float64 {
	m := median(vals)
	if len(vals) < 2 || m == 0 {
		return 0
	}
	return (pyQuantile(vals, 3) - pyQuantile(vals, 1)) / m
}
