package probe

import (
	"errors"
	"math/rand"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"dnsobservatory/internal/dnswire"
	"dnsobservatory/internal/metrics"
	"dnsobservatory/internal/publicsuffix"
	"dnsobservatory/internal/sie"
)

// Exchanger delivers one ipwire-framed DNS query (UDP or TCP framing)
// to the authoritative it addresses and returns the framed response
// plus the server's modeled response delay. Implementations must be
// safe for concurrent use. simnet.Authority implements this; the chaos
// injector wraps one to inject probe-path faults.
type Exchanger interface {
	Exchange(query []byte) (resp []byte, rtt time.Duration, err error)
}

// Target is one probe: a question plus a queue priority (0 is most
// urgent, drained first; values are clamped to the 0–2 bands).
type Target struct {
	QName    string
	QType    dnswire.Type
	Priority int
}

// Outcome classifies how a probe ended. Every submitted target gets
// exactly one outcome, so after Close the accounting identity
// issued = answered + timeouts + rate-limited + merged holds.
type Outcome uint8

const (
	// OutcomeAnswered means a final response arrived — including
	// NXDOMAIN, NODATA, REFUSED, a negative-cache hit, and a SERVFAIL
	// that survived every retry.
	OutcomeAnswered Outcome = iota
	// OutcomeTimeout means every attempt was lost or late (or the
	// referral chain exceeded the depth limit).
	OutcomeTimeout
	// OutcomeRateLimited means the per-nameserver token bucket could
	// not grant a slot within Config.MaxRateWait.
	OutcomeRateLimited
	// OutcomeMerged means an identical probe was already in flight and
	// this one shares its answer without touching the wire.
	OutcomeMerged
)

// String names the outcome for reports and logs.
func (o Outcome) String() string {
	switch o {
	case OutcomeAnswered:
		return "answered"
	case OutcomeTimeout:
		return "timeout"
	case OutcomeRateLimited:
		return "rate_limited"
	case OutcomeMerged:
		return "merged"
	}
	return "unknown"
}

// Result is one finished probe.
type Result struct {
	QName   string
	QType   dnswire.Type
	Outcome Outcome
	RCode   dnswire.RCode

	// Addrs holds the A/AAAA answers; shared between a singleflight
	// leader and its merged followers — do not mutate.
	Addrs []netip.Addr
	TTL   uint32

	// Server answered the final query (zero for cache-only results).
	Server netip.Addr
	// Latency sums the modeled network time across every exchange of
	// the resolution chain (lost attempts contribute the timeout).
	Latency time.Duration

	WireQueries int // exchanges this probe put on the wire
	Retries     int // retry attempts after timeout/SERVFAIL
	CacheHit    bool
	NegCacheHit bool
	TCPRetried  bool
}

// Config parameterizes an Engine. Exchanger and Roots are required;
// every zero field gets the documented default.
type Config struct {
	Exchanger Exchanger
	// Roots is the priming set: addresses of the root servers the
	// iterative walk starts from when the cache has nothing.
	Roots []netip.Addr

	Workers    int // resolver goroutines (default 64)
	QueueDepth int // max queued targets before Submit blocks (default 4096)

	// LocalAddr is the source address probe packets carry
	// (default 198.51.100.53).
	LocalAddr netip.Addr
	// SensorID stamps emitted transactions (default 9000).
	SensorID uint32

	// Timeout is the modeled wait before a reply counts as lost
	// (default 1s). Retries is how many extra attempts follow a
	// timeout or SERVFAIL, each against a rotated server (default 2;
	// -1 means no retries).
	Timeout time.Duration
	Retries int
	// BackoffMin doubles per retry up to BackoffMax, jittered ±50 %
	// (defaults 20ms, 250ms).
	BackoffMin time.Duration
	BackoffMax time.Duration

	// AuthRate and HierarchyRate are per-server token-bucket rates in
	// queries/second for leaf authoritatives and root/TLD servers
	// (defaults 4000 and 500 — infrastructure gets ZDNS-style
	// politeness; negative disables the limit). MaxRateWait caps how
	// long a probe waits for a token before it is dropped as
	// rate-limited (default 250ms).
	AuthRate      float64
	HierarchyRate float64
	MaxRateWait   time.Duration

	// DisableCache turns the NS cache off (the cacheless baseline the
	// benchmarks compare against). DisableSingleflight turns dedup off.
	DisableCache        bool
	DisableSingleflight bool

	// Seed makes worker rngs (query IDs, ports, jitter, server
	// rotation) reproducible.
	Seed int64

	// Suffixes is the public-suffix list used to pick negative-cache
	// keys (default publicsuffix.Default).
	Suffixes *publicsuffix.List

	// Name labels this engine's metrics (default "probe"); Metrics,
	// when set, registers the dnsobs_probe_* families.
	Name    string
	Metrics *metrics.Registry

	// OnResult and OnTransaction observe finished probes and wire
	// exchanges. Both are called serially (see the package doc for
	// buffer-validity rules).
	OnResult      func(*Result)
	OnTransaction func(*sie.Transaction)

	// Now is the clock (default time.Now) — injectable so cache-TTL
	// tests can advance time.
	Now func() time.Time
}

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("probe: engine closed")

// maxReferralDepth bounds one resolution's referral chain.
const maxReferralDepth = 8

// Engine is the probe plane: a worker pool over a prioritized queue,
// sharing one NS cache, one singleflight table and one rate limiter.
type Engine struct {
	cfg   Config
	cache *nsCache
	sf    *singleflight
	rl    *rateLimiter
	queue *probeQueue

	wg     sync.WaitGroup
	emitMu sync.Mutex

	issued      atomic.Uint64
	answered    atomic.Uint64
	timeouts    atomic.Uint64
	rateLimited atomic.Uint64
	merged      atomic.Uint64
	retries     atomic.Uint64
	sfRetries   atomic.Uint64 // servfail-triggered retries (subset of retries)
	cacheHits   atomic.Uint64
	negHits     atomic.Uint64
	cacheMisses atomic.Uint64
	wireQueries atomic.Uint64
	tcpRetries  atomic.Uint64
	inflight    atomic.Int64

	seconds *metrics.Histogram
}

// New starts an engine: Config.Workers goroutines begin draining the
// queue immediately. Call Close to drain and stop.
func New(cfg Config) *Engine {
	if cfg.Exchanger == nil {
		panic("probe: Config.Exchanger is required")
	}
	if len(cfg.Roots) == 0 {
		panic("probe: Config.Roots is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 64
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4096
	}
	if !cfg.LocalAddr.IsValid() {
		cfg.LocalAddr = netip.AddrFrom4([4]byte{198, 51, 100, 53})
	}
	if cfg.SensorID == 0 {
		cfg.SensorID = 9000
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = time.Second
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	} else if cfg.Retries == 0 {
		cfg.Retries = 2
	}
	if cfg.BackoffMin <= 0 {
		cfg.BackoffMin = 20 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 250 * time.Millisecond
	}
	if cfg.AuthRate == 0 {
		cfg.AuthRate = 4000
	}
	if cfg.HierarchyRate == 0 {
		cfg.HierarchyRate = 500
	}
	if cfg.MaxRateWait <= 0 {
		cfg.MaxRateWait = 250 * time.Millisecond
	}
	if cfg.Suffixes == nil {
		cfg.Suffixes = publicsuffix.Default
	}
	if cfg.Name == "" {
		cfg.Name = "probe"
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	e := &Engine{
		cfg:   cfg,
		cache: newNSCache(),
		sf:    newSingleflight(),
		rl:    newRateLimiter(),
		queue: newProbeQueue(cfg.QueueDepth),
	}
	e.instrument(cfg.Metrics)
	for i := 0; i < cfg.Workers; i++ {
		w := &worker{e: e, rng: rand.New(rand.NewSource(cfg.Seed + int64(i)*7919))}
		e.wg.Add(1)
		go w.loop()
	}
	return e
}

// Submit queues one probe, blocking while the queue is full. It
// returns ErrClosed once Close has been called.
func (e *Engine) Submit(t Target) error {
	e.issued.Add(1)
	if !e.queue.push(t) {
		e.issued.Add(^uint64(0)) // never enqueued: roll the count back
		return ErrClosed
	}
	return nil
}

// Close stops intake, waits for the queue to drain and every in-flight
// probe to finish, then returns. Safe to call once.
func (e *Engine) Close() error {
	e.queue.close()
	e.wg.Wait()
	return nil
}

// Status is a point-in-time snapshot of the engine counters, also
// served by webui /healthz when wired.
type Status struct {
	Issued      uint64 `json:"issued"`
	Answered    uint64 `json:"answered"`
	Timeouts    uint64 `json:"timeouts"`
	RateLimited uint64 `json:"rate_limited"`
	Merged      uint64 `json:"merged"`

	Retries         uint64 `json:"retries"`
	ServFailRetries uint64 `json:"servfail_retries"`
	CacheHits       uint64 `json:"cache_hits"`
	NegativeHits    uint64 `json:"negative_hits"`
	CacheMisses     uint64 `json:"cache_misses"`
	WireQueries     uint64 `json:"wire_queries"`
	TCPRetries      uint64 `json:"tcp_retries"`

	Inflight     int64 `json:"inflight"`
	Queued       int   `json:"queued"`
	CacheEntries int   `json:"cache_entries"`
}

// Status snapshots the counters.
func (e *Engine) Status() Status {
	return Status{
		Issued:          e.issued.Load(),
		Answered:        e.answered.Load(),
		Timeouts:        e.timeouts.Load(),
		RateLimited:     e.rateLimited.Load(),
		Merged:          e.merged.Load(),
		Retries:         e.retries.Load(),
		ServFailRetries: e.sfRetries.Load(),
		CacheHits:       e.cacheHits.Load(),
		NegativeHits:    e.negHits.Load(),
		CacheMisses:     e.cacheMisses.Load(),
		WireQueries:     e.wireQueries.Load(),
		TCPRetries:      e.tcpRetries.Load(),
		Inflight:        e.inflight.Load(),
		Queued:          e.queue.len(),
		CacheEntries:    e.cache.Len(),
	}
}

// worker is one resolver goroutine with its own rng and scratch
// buffers, so the steady-state probe path allocates only results.
type worker struct {
	e   *Engine
	rng *rand.Rand

	q    dnswire.Message // query being built
	r    dnswire.Message // response being parsed
	qbuf []byte          // packed DNS query
	pbuf []byte          // framed query packet
	tx   sie.Transaction
}

func (w *worker) loop() {
	defer w.e.wg.Done()
	for {
		t, ok := w.e.queue.pop()
		if !ok {
			return
		}
		w.e.inflight.Add(1)
		res := w.e.resolveDedup(w, t)
		w.e.finish(res)
		w.e.inflight.Add(-1)
	}
}

// resolveDedup applies singleflight around the iterative resolution.
func (e *Engine) resolveDedup(w *worker, t Target) *Result {
	if e.cfg.DisableSingleflight {
		return e.resolve(w, t)
	}
	key := t.QName + "|" + t.QType.String()
	c, leader := e.sf.begin(key)
	if leader {
		res := e.resolve(w, t)
		e.sf.finish(key, c, res)
		return res
	}
	shared := c.wait()
	res := *shared
	res.Outcome = OutcomeMerged
	res.WireQueries = 0
	res.Retries = 0
	return &res
}

// finish records the outcome and hands the result to the observer.
func (e *Engine) finish(res *Result) {
	switch res.Outcome {
	case OutcomeAnswered:
		e.answered.Add(1)
		e.seconds.Observe(res.Latency.Seconds())
	case OutcomeTimeout:
		e.timeouts.Add(1)
	case OutcomeRateLimited:
		e.rateLimited.Add(1)
	case OutcomeMerged:
		e.merged.Add(1)
	}
	if e.cfg.OnResult != nil {
		e.emitMu.Lock()
		e.cfg.OnResult(res)
		e.emitMu.Unlock()
	}
}

// emitTx hands one wire exchange to the transaction observer,
// serialized so non-concurrency-safe sinks (transport.Sensor, an
// sie.Writer) can be driven directly.
func (e *Engine) emitTx(tx *sie.Transaction) {
	if e.cfg.OnTransaction == nil {
		return
	}
	e.emitMu.Lock()
	e.cfg.OnTransaction(tx)
	e.emitMu.Unlock()
}

// probeQueue is the bounded three-band priority queue the workers
// drain: band 0 first, FIFO within a band, Submit blocking when full.
type probeQueue struct {
	mu       sync.Mutex
	notEmpty *sync.Cond
	notFull  *sync.Cond
	bands    [3][]Target
	heads    [3]int
	n        int
	depth    int
	closed   bool
}

func newProbeQueue(depth int) *probeQueue {
	q := &probeQueue{depth: depth}
	q.notEmpty = sync.NewCond(&q.mu)
	q.notFull = sync.NewCond(&q.mu)
	return q
}

func (q *probeQueue) push(t Target) bool {
	b := t.Priority
	if b < 0 {
		b = 0
	} else if b > 2 {
		b = 2
	}
	q.mu.Lock()
	for q.n >= q.depth && !q.closed {
		q.notFull.Wait()
	}
	if q.closed {
		q.mu.Unlock()
		return false
	}
	q.bands[b] = append(q.bands[b], t)
	q.n++
	q.mu.Unlock()
	q.notEmpty.Signal()
	return true
}

func (q *probeQueue) pop() (Target, bool) {
	q.mu.Lock()
	for q.n == 0 && !q.closed {
		q.notEmpty.Wait()
	}
	if q.n == 0 {
		q.mu.Unlock()
		return Target{}, false
	}
	for b := 0; b < 3; b++ {
		if q.heads[b] < len(q.bands[b]) {
			t := q.bands[b][q.heads[b]]
			q.heads[b]++
			// Compact the band once the dead prefix dominates, keeping
			// amortized O(1) pops without unbounded slice growth.
			if q.heads[b] > 64 && q.heads[b]*2 >= len(q.bands[b]) {
				q.bands[b] = append(q.bands[b][:0], q.bands[b][q.heads[b]:]...)
				q.heads[b] = 0
			}
			q.n--
			q.mu.Unlock()
			q.notFull.Signal()
			return t, true
		}
	}
	// Unreachable: n > 0 implies a non-empty band.
	q.mu.Unlock()
	return Target{}, false
}

func (q *probeQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

func (q *probeQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.notEmpty.Broadcast()
	q.notFull.Broadcast()
}
