package spine

import (
	"errors"
	"sync"

	"dnsobservatory/internal/detect"
	"dnsobservatory/internal/observatory"
	"dnsobservatory/internal/sie"
	"dnsobservatory/internal/tsv"
)

// Journal is the write-ahead log behind the stream. Checkpoint(done)
// tells it that the first done transactions handed to Ingest are in
// stored windows. *transport.Collector is one.
type Journal interface {
	Checkpoint(done uint64) error
}

// Config is what the spine's callers set differently.
type Config struct {
	// Store receives every window. With a Journal its FsyncOnPut is
	// forced on: a checkpoint lets go only of what is on stable storage.
	Store *tsv.Store
	// Aggs are the engine's aggregations. With Engine.Detect set, the
	// detection windows are stored and cascaded too.
	Aggs   []observatory.Aggregation
	Engine observatory.Config
	// Sharded builds the worker shape, with Shards and Workers read as
	// observatory.ShardedConfig reads them; otherwise the inline shape.
	Sharded         bool
	Shards, Workers int
	// Journal, when set, is checkpointed as windows are stored.
	Journal Journal
}

// errAborted gates what the engine delivers after Abort.
var errAborted = errors.New("spine: aborted")

// Spine is one open pipeline (see the package comment for who may call
// what).
type Spine struct {
	cfg        Config // Journal is cleared by a failed checkpoint
	eng        *observatory.Engine
	names      []string // every aggregation the store holds windows of
	summarizer sie.Summarizer
	n, refused uint64 // Ingest calls; refusals among them and Reject calls
	closed     bool
	// cascades is whether settling cascades: the store's levels build
	// on minute windows, so windows of another length are not.
	cascades bool
	// lastStart is the start of the last window stored. The goroutine
	// that delivers windows owns it, and Close reads it once the engine
	// has delivered its last.
	lastStart int64
	// stored is each aggregation's newest minute window in the store at
	// Open. Windows up to it are warm-up: a restart replays from the first
	// transaction of the window being stored, and a fresh engine's version
	// of a stored window is not stored again.
	stored map[string]int64

	mu  sync.Mutex
	err error // the first failure: nothing is stored or settled after it
}

// Open builds the engine in the configured shape and starts a stream.
func Open(cfg Config) *Spine {
	s := &Spine{cfg: cfg, lastStart: -1}
	s.cascades = cfg.Engine.WindowSec <= 0 || cfg.Engine.WindowSec == float64(tsv.Minutely.Seconds())
	s.summarizer.KeepUnparsableResponses = true
	for _, a := range cfg.Aggs {
		s.names = append(s.names, a.Name)
	}
	if cfg.Engine.Detect != nil {
		s.names = append(s.names, detect.AggESLD, detect.AggNOD)
	}
	s.stored = map[string]int64{}
	for _, name := range s.names {
		if starts, _ := cfg.Store.List(name, tsv.Minutely); len(starts) > 0 {
			s.stored[name] = starts[len(starts)-1]
		}
	}
	if cfg.Journal != nil {
		cfg.Store.FsyncOnPut = true
	}
	if cfg.Sharded {
		s.eng = observatory.NewSharded(observatory.ShardedConfig{
			Config: cfg.Engine, Shards: cfg.Shards, Workers: cfg.Workers,
		}, cfg.Aggs, s.deliver)
	} else {
		s.eng = observatory.New(cfg.Engine, cfg.Aggs, s.deliver)
	}
	return s
}

// Engine is the spine's engine: its Stats, Shards and Workers, and
// RecordRejected, which any goroutine may call.
func (s *Spine) Engine() *observatory.Engine { return s.eng }

// Ingest summarizes tx into a pooled buffer and hands it to the engine
// at stream time t, in seconds, numbered by its index among Ingest
// calls: the count a journal checkpoints. A transaction with no time, or
// one the summarizer cannot parse, is refused and keeps its number. The
// error is the spine's first failure; no window is stored after it.
func (s *Spine) Ingest(tx *sie.Transaction, t float64) error {
	buf := s.eng.Borrow()
	if tx.QueryTime.IsZero() || s.summarizer.Summarize(tx, &buf.Summary) != nil {
		s.eng.Discard(buf)
		s.Reject()
	} else {
		buf.Summary.Seq = s.n
		s.eng.IngestShared(buf, t)
	}
	s.n++
	return s.failed()
}

// Reject accounts one transaction the caller read but could not decode.
// It takes no number.
func (s *Spine) Reject() {
	s.refused++
	s.eng.RecordRejected()
}

// Counts returns how many transactions Ingest was handed, and how many
// of those and of Reject's were refused.
func (s *Spine) Counts() (n, refused uint64) { return s.n, s.refused }

// Close ends the stream: the engine delivers its open window, and a last
// settle checkpoints every transaction handed to Ingest and cascades up
// to that window's end. It returns the first failure, again on every
// later call.
func (s *Spine) Close() error {
	s.eng.Close()
	if !s.closed && s.failed() == nil {
		s.fail(s.settle(s.lastStart+tsv.Minutely.Seconds(), s.n))
	}
	s.closed = true
	return s.failed()
}

// Abort ends the stream after the caller failed: the engine's goroutines
// stop, and the windows it still delivers are neither stored nor
// settled. After Close it does nothing, so a caller defers it and calls
// Close on success.
func (s *Spine) Abort() {
	if !s.closed {
		s.fail(errAborted)
	}
	s.Close()
}

// fail records err, unless it is nil or a failure came first.
func (s *Spine) fail(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		s.err = err
	}
}

// failed returns the first failure.
func (s *Spine) failed() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// deliver stores one snapshot. The engine delivers windows in order, so
// the first snapshot of a window finds every earlier one stored: that is
// when they settle.
func (s *Spine) deliver(snap *tsv.Snapshot) {
	if last, ok := s.stored[snap.Aggregation]; s.failed() != nil || ok && snap.Start <= last {
		return
	}
	var err error
	if snap.Start > s.lastStart {
		err = s.settle(snap.Start, s.eng.FirstOfWindow())
	}
	if err == nil {
		err = s.cfg.Store.Put(snap)
	}
	if err != nil {
		s.fail(err)
		return
	}
	s.lastStart = snap.Start
}

// settle lets the journal go of the first done transactions, cascades
// every window closed by now (minute windows only) and applies
// retention. A failed checkpoint ends checkpointing only: the journal
// keeps what it holds for a restart to replay.
func (s *Spine) settle(now int64, done uint64) error {
	if s.cfg.Journal != nil && s.cfg.Journal.Checkpoint(done) != nil {
		s.cfg.Journal = nil
	}
	if s.cascades {
		if err := s.cfg.Store.CascadeAll(s.names, now); err != nil {
			return err
		}
	}
	for _, name := range s.names {
		if err := s.cfg.Store.Retention(name); err != nil {
			return err
		}
	}
	return nil
}
