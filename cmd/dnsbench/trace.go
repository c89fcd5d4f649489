package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Parent is the span
// that caused it (0 for a root); spans of one round share Round. N is
// the number of items (transactions, rows, queries) the interval
// covered, so per-item costs are measured where the work happens.
type span struct {
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"`
	Round   int    `json:"round"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	N       int64  `json:"n"`
}

func (s *span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// tracer appends spans to a preallocated slice; nothing is written
// until the workload ends. A nil *tracer records nothing, so the
// untraced run takes the same code path minus the clock reads.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	round int
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<18)}
}

// begin opens a span under parent and returns its id (0 on a nil
// tracer). Safe for concurrent use: the sensor, the consumer and the
// sharded engine's merger all record into one tracer.
func (t *tracer) begin(parent int32, name string) int32 {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Round: t.round, Name: name, StartNs: now})
	t.mu.Unlock()
	return id
}

// end closes span id, recording that it covered n items.
func (t *tracer) end(id int32, n int64) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	s := &t.spans[id-1]
	s.EndNs = now
	s.N = n
	t.mu.Unlock()
}

// setRound tags the spans opened from now on with a round number.
func (t *tracer) setRound(r int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.round = r
	t.mu.Unlock()
}

// selfTimes returns, per span name, the summed self time (duration
// minus the durations of direct children) and the summed item counts,
// over the spans of the given rounds. Below the round level children run
// one after another on their parent's goroutine, so the subtraction is
// exact. Spans recorded on other goroutines (sensor, consumer, sharded
// merger) hang off the round itself, whose self time is therefore only
// meaningful on replay-serial.
func selfTimes(spans []span, rounds map[int]bool) (self map[string]time.Duration, items map[string]int64) {
	child := make(map[int32]time.Duration)
	for i := range spans {
		s := &spans[i]
		if rounds[s.Round] && s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	self = make(map[string]time.Duration)
	items = make(map[string]int64)
	for i := range spans {
		s := &spans[i]
		if !rounds[s.Round] {
			continue
		}
		self[s.Name] += s.dur() - child[s.ID]
		items[s.Name] += s.N
	}
	return self, items
}

// traceFile is what trace-<workload>.json holds.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// TracedRounds lists the round numbers run in batch-staged mode;
	// the other rounds are untraced references carrying only a round
	// span, for harness.trace_overhead_pct.
	TracedRounds []int  `json:"traced_rounds"`
	Spans        []span `json:"spans"`
}

func writeTrace(path string, tf *traceFile) error {
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
