package tsv

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dnsobservatory/internal/metrics"
)

// storeCodec is one on-disk snapshot representation. The store is
// generic over it: cascade, retention, crash-safety and listing are
// identical for every backend, only the bytes differ.
type storeCodec struct {
	name   string // backend name (BackendTSV, BackendColumnar)
	ext    string // file extension, with dot
	encode func(*Snapshot, io.Writer) (int64, error)
	// open reads what proj needs of the size-byte file behind src into
	// f, which then holds the projected values of the selected rows for
	// f.snapshot to materialize or accumulator.foldFile to fold. A
	// non-nil frame is the one an earlier read of the file validated.
	open func(f *colFile, src io.ReaderAt, size int64, proj *Projection, fr *colFrame) error
}

var tsvCodec = storeCodec{
	name:   BackendTSV,
	ext:    ".tsv",
	encode: (*Snapshot).WriteTo,
	open:   (*colFile).openText,
}

var columnarCodec = storeCodec{
	name:   BackendColumnar,
	ext:    ".col",
	encode: EncodeColumnar,
	open:   (*colFile).open,
}

// ErrCorruptSnapshot matches (via errors.Is) any snapshot file the store
// could open but not parse — truncated, bit-rotted, or half-written.
// Callers that walk many files (CascadeAll) skip and count such files
// instead of aborting, since one bad file must not take down an entire
// aggregation level.
var ErrCorruptSnapshot = errors.New("tsv: corrupt snapshot file")

// CorruptError reports an unparsable snapshot file. It matches
// ErrCorruptSnapshot under errors.Is and unwraps to the codec error.
type CorruptError struct {
	Path string
	Err  error
}

// Error implements error.
func (e *CorruptError) Error() string {
	return fmt.Sprintf("tsv: corrupt snapshot %s: %v", e.Path, e.Err)
}

// Unwrap returns the underlying codec error.
func (e *CorruptError) Unwrap() error { return e.Err }

// Is matches ErrCorruptSnapshot.
func (e *CorruptError) Is(target error) bool { return target == ErrCorruptSnapshot }

// Store manages snapshot files in a directory, running the aggregation
// cascade (minutely → 10-minutely → hourly → …) and the retention
// policy that deletes old fine-grained files once coarser aggregates
// exist (paper §2.4).
//
// Writes are crash-safe: snapshots land under temporary names and are
// renamed into place only once fully written, NewStore reaps temp files
// orphaned by an earlier crash, and corrupt files are detected (typed
// ErrCorruptSnapshot) and skipped with accounting rather than trusted.
type Store struct {
	dir   string
	codec storeCodec
	// Retain caps how many files of each level are kept; zero means
	// unlimited. Older files beyond the cap are deleted by Retention.
	Retain map[Level]int
	// FsyncOnPut syncs the snapshot file (and the directory, so the
	// rename itself is durable) before Put returns. Off by default:
	// minutely snapshots are reproducible from upstream, so most
	// deployments prefer throughput; turn it on when the store is the
	// only copy of the data.
	FsyncOnPut bool
	// WrapWriter, when set, wraps the snapshot file writer on every Put
	// — the chaos-injection point for failing and short writes. Nil in
	// production.
	WrapWriter func(io.Writer) io.Writer

	corruptSkipped atomic.Uint64
	tmpSeq         atomic.Uint64
	puts           atomic.Uint64
	rowsWritten    atomic.Uint64
	fsyncs         atomic.Uint64

	// The per-level directory-listing cache: the read path (cascade,
	// retention, web UI listings, range queries) used to rescan the
	// directory on every call. listMu guards the cache maps; the hit and
	// miss tallies are read-through metrics.
	listMu     sync.Mutex
	listCache  [MaxLevel + 1]map[string][]int64
	listHits   atomic.Uint64
	listMisses atomic.Uint64

	// Selective-read accounting from the columnar codec, and what both
	// codecs asked of the file system: bytes read over files visited is
	// the read amplification.
	blocksDecoded atomic.Uint64
	blocksSkipped atomic.Uint64
	bloomSkips    atomic.Uint64
	readBytes     atomic.Uint64
	readCalls     atomic.Uint64

	files fileTable // the files queries have read, held open

	// barren holds the cascadeWindows whose inputs were all corrupt:
	// they never get an upper file, and Retention never deletes inputs
	// no upper file has absorbed, so without it every CascadeAll would
	// read and count them again. Kept for the life of the store.
	barren sync.Map

	// cascadeSeconds[level] is the per-level cascade duration histogram,
	// populated by Instrument; nil slots are simply not observed.
	cascadeSeconds [MaxLevel]*metrics.Histogram
}

// Instrument registers the store's counters with reg (rows written,
// puts, fsyncs, corrupt-skips) and creates the per-level cascade
// duration histograms. Counters are registered read-through: the
// store's own atomics stay the source of truth and the write path gains
// no extra work. Call once per store; safe to call again after reuse
// (the function slots are replaced).
func (st *Store) Instrument(reg *metrics.Registry) {
	reg.CounterFunc("dnsobs_store_puts_total", "snapshot files committed by Put", st.Puts)
	reg.CounterFunc("dnsobs_store_rows_written_total", "TSV rows across committed snapshots", st.RowsWritten)
	reg.CounterFunc("dnsobs_store_fsyncs_total", "file and directory fsyncs issued by Put", st.Fsyncs)
	reg.CounterFunc("dnsobs_store_corrupt_skips_total", "corrupt snapshot files skipped by the cascade", st.CorruptSkipped)
	reg.CounterFunc("dnsobs_store_list_cache_hits_total", "level listings served from the cached directory index", st.ListCacheHits)
	reg.CounterFunc("dnsobs_store_list_cache_misses_total", "level listings that scanned the store directory", st.ListCacheMisses)
	reg.CounterFunc("dnsobs_store_blocks_decoded_total", "columnar value blocks decoded", st.BlocksDecoded)
	reg.CounterFunc("dnsobs_store_blocks_skipped_total", "columnar value blocks skipped by projection or predicate pushdown", st.BlocksSkipped)
	reg.CounterFunc("dnsobs_store_bloom_skips_total", "point lookups answered negatively by the per-file key bloom", st.BloomSkips)
	reg.CounterFunc("dnsobs_store_read_bytes_total", "snapshot file bytes read by Get, GetProjected and queries", st.ReadBytes)
	reg.CounterFunc("dnsobs_store_read_calls_total", "positional reads issued against snapshot files", st.ReadCalls)
	reg.GaugeFunc("dnsobs_store_open_files", "snapshot files the store's file table holds open",
		func() float64 { return float64(st.files.open.Load()) })
	reg.CounterFunc("dnsobs_store_file_table_hits_total", "query file reads served by an open file and its checked frame", st.files.hits.Load)
	reg.CounterFunc("dnsobs_store_file_table_misses_total", "query file reads that opened the file", st.files.misses.Load)
	reg.CounterFunc("dnsobs_store_file_table_evictions_total", "open files closed to keep the file table within its bound", st.files.evictions.Load)
	for level := Minutely; level < MaxLevel; level++ {
		st.cascadeSeconds[level] = reg.Histogram("dnsobs_store_cascade_seconds",
			"duration of one cascade pass per source level", metrics.DurationBuckets,
			"level", level.Name())
	}
}

// Puts returns how many snapshot files Put has committed.
func (st *Store) Puts() uint64 { return st.puts.Load() }

// RowsWritten returns the total TSV rows across committed snapshots.
func (st *Store) RowsWritten() uint64 { return st.rowsWritten.Load() }

// Fsyncs returns how many fsyncs (file and directory) Put has issued.
func (st *Store) Fsyncs() uint64 { return st.fsyncs.Load() }

// NewStore returns a TSV-backed store rooted at dir, creating it if
// needed and deleting any .tmp-* files a crashed predecessor left
// behind (they were never renamed into place, so they hold no committed
// data).
func NewStore(dir string) (*Store, error) {
	return newStore(dir, tsvCodec)
}

// NewColumnarStore returns a store using the columnar snapshot format:
// same directory layout, cascade and crash-safety as the TSV store, but
// files decode by column with block skipping instead of row-by-row text
// parsing.
func NewColumnarStore(dir string) (*Store, error) {
	return newStore(dir, columnarCodec)
}

// NewStoreBackend returns a store with the named backend: BackendTSV or
// BackendColumnar. It is the -store flag's constructor.
func NewStoreBackend(dir, backend string) (*Store, error) {
	switch backend {
	case BackendTSV:
		return NewStore(dir)
	case BackendColumnar:
		return NewColumnarStore(dir)
	}
	return nil, fmt.Errorf("tsv: unknown store backend %q (want %q or %q)",
		backend, BackendTSV, BackendColumnar)
}

func newStore(dir string, codec storeCodec) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") && !e.IsDir() {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return nil, err
			}
		}
	}
	return &Store{dir: dir, codec: codec, Retain: map[Level]int{}}, nil
}

// Dir returns the store's root directory.
func (st *Store) Dir() string { return st.dir }

// Backend returns the store's codec name: BackendTSV or
// BackendColumnar.
func (st *Store) Backend() string { return st.codec.name }

// FileName returns the name Put commits s under: the canonical
// agg-level-start stem with the backend's extension.
func (st *Store) FileName(s *Snapshot) string { return s.fileStem() + st.codec.ext }

// CorruptSkipped returns how many corrupt snapshot files Cascade has
// skipped over the store's lifetime.
func (st *Store) CorruptSkipped() uint64 { return st.corruptSkipped.Load() }

// Put writes snap as a file: into a temp name first, renamed into place
// only after a fully successful write (and fsync, when configured), so
// a crash or write error never leaves a half-written snapshot under a
// committed name. A snapshot that names a column twice is refused before
// anything is written.
func (st *Store) Put(snap *Snapshot) error {
	if repeats(snap.Columns) {
		return fmt.Errorf("tsv: a column named twice in %v: no reader could tell the two apart", snap.Columns)
	}
	// A store-scoped sequence number plus the pid gives a unique name in
	// one shot — os.CreateTemp's random-name retry loop costs noticeably
	// more when the cascade writes hundreds of small files. The .tmp-
	// prefix is the crash-recovery contract: NewStore reaps it.
	tmp := filepath.Join(st.dir, fmt.Sprintf(".tmp-%d-%d", os.Getpid(), st.tmpSeq.Add(1)))
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return err
	}
	var w io.Writer = f
	if st.WrapWriter != nil {
		w = st.WrapWriter(w)
	}
	if _, err := st.codec.encode(snap, w); err != nil {
		f.Close()
		os.Remove(f.Name())
		return err
	}
	if st.FsyncOnPut {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(f.Name())
			return err
		}
		st.fsyncs.Add(1)
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return err
	}
	// The rename and the listing's insert are one step to a reader of
	// the listing, as Retention's removes and its invalidation are: a
	// listing names every file on disk and no other.
	st.listMu.Lock()
	err = os.Rename(f.Name(), filepath.Join(st.dir, st.FileName(snap)))
	if err == nil {
		st.notePut(snap.Aggregation, snap.Level, snap.Start)
	}
	st.listMu.Unlock()
	if err != nil {
		os.Remove(f.Name())
		return err
	}
	st.files.drop(fileKey{snap.Aggregation, snap.Level, snap.Start})
	st.puts.Add(1)
	st.rowsWritten.Add(uint64(len(snap.Rows)))
	if st.FsyncOnPut {
		if err := syncDir(st.dir); err != nil {
			return err
		}
		st.fsyncs.Add(1)
	}
	return nil
}

// syncDir fsyncs a directory so a rename within it survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Get loads the snapshot for (agg, level, start). A file that exists
// but cannot be parsed yields a *CorruptError (matching
// ErrCorruptSnapshot); a missing file yields the usual fs.ErrNotExist.
func (st *Store) Get(agg string, level Level, start int64) (*Snapshot, error) {
	return st.GetProjected(agg, level, start, nil)
}

// GetProjected loads the snapshot restricted to proj: only the
// projected columns are materialized and only rows passing the key and
// range predicates are returned. The columnar backend reads only the
// file sections the projection needs, skips whole blocks and answers
// negative point lookups from the bloom index; the TSV backend reads
// and parses the whole file into the same scratch and filters there,
// with identical results. A nil or zero proj is a plain Get.
func (st *Store) GetProjected(agg string, level Level, start int64, proj *Projection) (*Snapshot, error) {
	f := colFilePool.Get().(*colFile)
	defer f.release()
	if err := st.scan(fileKey{agg, level, start}, proj, f, false); err != nil {
		return nil, err
	}
	s := f.snapshot()
	s.Aggregation, s.Level, s.Start = agg, level, start
	return s, nil
}

// Close closes the files the store holds open for queries; one a query
// is still reading closes when that read ends. The store stays usable:
// later queries open their files each time.
func (st *Store) Close() error {
	st.files.closeAll()
	return nil
}

// scan reads the file k names under proj into f, which then holds the
// projected values of the selected rows for f.snapshot to materialize
// or accumulator.foldFile to fold: neither reads the file again. A cached read goes through the file table: a file held
// there is read without opening it or checking its frame again, and one
// that is not is offered to the table once it has been read whole.
func (st *Store) scan(k fileKey, proj *Projection, f *colFile, cached bool) error {
	var e *openFile
	var gen uint64
	if cached {
		e, gen = st.files.pin(k)
	}
	var cold openFile // a file opened here, closed here unless admitted
	if e != nil {
		defer st.files.unpin(e)
	} else {
		e = &cold
		var err error
		if cold.file, err = os.Open(st.path(k)); err != nil {
			return err
		}
		// Seek, not Stat: the size is all that is needed, and Stat
		// allocates a FileInfo per file in range.
		if cold.size, err = cold.file.Seek(0, io.SeekEnd); err != nil {
			cold.file.Close()
			return err
		}
	}
	err := st.codec.open(f, e.file, e.size, proj, e.frame)
	if e == &cold && (err != nil || !cached || !st.files.admit(k, cold.file, cold.size, f.colFrame, gen)) {
		cold.file.Close()
	}
	cs := &f.counts
	st.blocksDecoded.Add(cs.blocksDecoded)
	st.blocksSkipped.Add(cs.blocksSkipped)
	st.bloomSkips.Add(cs.bloomSkips)
	st.readBytes.Add(cs.readBytes)
	st.readCalls.Add(cs.readCalls)
	if err != nil {
		var ioErr *fs.PathError
		if errors.Is(err, ErrUnknownColumn) || errors.As(err, &ioErr) {
			// A schema mismatch between query and file is the caller's
			// error and a failed read the system's; neither is file
			// damage.
			return err
		}
		return &CorruptError{Path: st.path(k), Err: err}
	}
	return nil
}

// fold reads the file k names under proj and folds it into acc, through
// the reader acc carries for every file after a query's first.
func (st *Store) fold(k fileKey, proj *Projection, acc *accumulator, cached bool) error {
	if err := st.scan(k, proj, &acc.file, cached); err != nil {
		return err
	}
	return acc.foldFile(&acc.file)
}

// path names the file k names the way FileName and filepath.Join
// would, in one allocation: a cold read opens a file per window in
// range.
func (st *Store) path(k fileKey) string {
	b := append(make([]byte, 0, 128), st.dir...)
	if n := len(b); n > 0 && !os.IsPathSeparator(b[n-1]) {
		b = append(b, filepath.Separator)
	}
	b = appendFileStem(b, k.agg, k.level, k.start)
	return string(append(b, st.codec.ext...))
}

// BlocksDecoded, BlocksSkipped and BloomSkips report the columnar
// codec's selective-read tallies (always zero for the TSV backend).
func (st *Store) BlocksDecoded() uint64 { return st.blocksDecoded.Load() }

// BlocksSkipped returns how many column blocks pushdown skipped.
func (st *Store) BlocksSkipped() uint64 { return st.blocksSkipped.Load() }

// BloomSkips returns how many point lookups the bloom index answered
// negatively without decoding row data.
func (st *Store) BloomSkips() uint64 { return st.bloomSkips.Load() }

// ReadBytes returns how many snapshot file bytes reads have fetched.
// Divided by the files visited (the query engine's FilesScanned) it is
// the read amplification of the workload.
func (st *Store) ReadBytes() uint64 { return st.readBytes.Load() }

// ReadCalls returns how many positional reads fetched them.
func (st *Store) ReadCalls() uint64 { return st.readCalls.Load() }

// List returns the start times of stored files for (agg, level),
// ascending. The result is the caller's to keep: a copy of that one
// aggregation's listing.
func (st *Store) List(agg string, level Level) ([]int64, error) {
	st.listMu.Lock()
	defer st.listMu.Unlock()
	cached, err := st.cachedLevel(level)
	if err != nil {
		return nil, err
	}
	return append([]int64(nil), cached[agg]...), nil
}

// ListCacheHits and ListCacheMisses report directory-listing cache
// effectiveness.
func (st *Store) ListCacheHits() uint64 { return st.listHits.Load() }

// ListCacheMisses returns how many listLevel calls had to scan the
// directory.
func (st *Store) ListCacheMisses() uint64 { return st.listMisses.Load() }

// listLevel returns the start times of every stored file at one level,
// grouped by aggregation and ascending, as a copy the caller may keep.
func (st *Store) listLevel(level Level) (map[string][]int64, error) {
	st.listMu.Lock()
	defer st.listMu.Unlock()
	cached, err := st.cachedLevel(level)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]int64, len(cached))
	for a, starts := range cached {
		out[a] = append([]int64(nil), starts...)
	}
	return out, nil
}

// cachedLevel returns the level's listing from the cache, scanning the
// directory to fill it when cold. The listing is cached per level: Put
// inserts into it and Retention invalidates it, so the read path
// (cascade grouping, web UI listings, query-engine ranges) stops paying
// a full directory scan per call. The caller holds listMu and must copy
// what it hands out.
func (st *Store) cachedLevel(level Level) (map[string][]int64, error) {
	if cached := st.listCache[level]; cached != nil {
		st.listHits.Add(1)
		return cached, nil
	}
	st.listMisses.Add(1)
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, err
	}
	cached := map[string][]int64{}
	for _, e := range entries {
		a, l, start, ext, err := parseFileName(e.Name())
		if err != nil || l != level || ext != st.codec.ext {
			continue
		}
		cached[a] = append(cached[a], start)
	}
	for _, starts := range cached {
		sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	}
	st.listCache[level] = cached
	return cached, nil
}

// notePut inserts a freshly committed file into the level's cached
// listing, keeping it warm through a cascade (which lists the level it
// just wrote on the next pass). A cold cache stays cold: the next
// listLevel scan will see the file. The caller holds listMu.
func (st *Store) notePut(agg string, level Level, start int64) {
	m := st.listCache[level]
	if m == nil {
		return
	}
	starts := m[agg]
	i := sort.Search(len(starts), func(i int) bool { return starts[i] >= start })
	if i < len(starts) && starts[i] == start {
		return // overwrite of an existing window
	}
	starts = append(starts, 0)
	copy(starts[i+1:], starts[i:])
	starts[i] = start
	m[agg] = starts
}

// cascadeWindow names the upper window of agg built from level's files.
type cascadeWindow struct {
	agg    string
	level  Level
	window int64
}

// cascadeJob is one upper-level aggregate to build: the lower-level
// start times of agg that fall into the upper window.
type cascadeJob struct {
	cascadeWindow
	starts []int64
}

// CascadeAll aggregates the closed windows of aggs into the next level,
// for every level below Yearly: an upper-level window is built once its
// end is at or before now, from the lower-level files inside it, and the
// files it produces cascade further up in the same call. Levels are
// sequential (upper levels consume the files lower levels just wrote),
// but within a level every (aggregation, closed window) aggregate is an
// independent job — disjoint input files, one distinct output file —
// fanned over GOMAXPROCS workers. The files are the same at any
// GOMAXPROCS; only the wall clock differs.
//
// A corrupt input file is skipped and counted (CorruptSkipped) rather
// than failing the level: the upper aggregate is built from whatever
// parses, matching the codec's contract that every committed file was
// written whole — anything else is damage to route around.
func (st *Store) CascadeAll(aggs []string, now int64) error {
	workers := runtime.GOMAXPROCS(0)
	for level := Minutely; level < MaxLevel; level++ {
		step := (level + 1).Seconds()
		// One listing of each level serves every aggregation: the lower
		// one holds the inputs, the upper one what is already built — a
		// pass with nothing new to build opens no file.
		byAgg, err := st.listLevel(level)
		if err != nil {
			return err
		}
		built, err := st.listLevel(level + 1)
		if err != nil {
			return err
		}
		var jobs []cascadeJob
		for _, agg := range aggs {
			// Listings ascend: an upper window's inputs are one run of
			// them, and the windows come in order.
			starts := byAgg[agg]
			for i, j := 0, 0; i < len(starts); i = j {
				w := starts[i] - starts[i]%step
				for j = i + 1; j < len(starts) && starts[j]-starts[j]%step == w; j++ {
				}
				if w+step > now {
					break // this window and every later one still open
				}
				if _, done := slices.BinarySearch(built[agg], w); done {
					continue
				}
				cw := cascadeWindow{agg, level, w}
				if _, barren := st.barren.Load(cw); !barren {
					jobs = append(jobs, cascadeJob{cw, starts[i:j]})
				}
			}
		}
		if len(jobs) == 0 {
			continue
		}
		levelStart := time.Now()
		var (
			wg      sync.WaitGroup
			sem     = make(chan struct{}, workers)
			errMu   sync.Mutex
			pending error
		)
		for _, j := range jobs {
			wg.Add(1)
			sem <- struct{}{}
			go func(j cascadeJob) {
				defer func() { <-sem; wg.Done() }()
				if err := st.buildUpper(j); err != nil {
					errMu.Lock()
					if pending == nil {
						pending = err
					}
					errMu.Unlock()
				}
			}(j)
		}
		wg.Wait()
		if h := st.cascadeSeconds[level]; h != nil {
			h.Observe(time.Since(levelStart).Seconds())
		}
		if pending != nil {
			return pending
		}
	}
	return nil
}

// buildUpper aggregates one closed upper-level window: each lower-level
// file folds into one accumulator as it is read, the way a query's
// range does, and a corrupt one is skipped and counted.
func (st *Store) buildUpper(j cascadeJob) error {
	acc := newAccumulator()
	defer acc.release()
	for _, s := range j.starts {
		if err := st.fold(fileKey{j.agg, j.level, s}, nil, acc, false); errors.Is(err, ErrCorruptSnapshot) {
			st.corruptSkipped.Add(1)
		} else if err != nil {
			return err
		}
	}
	if acc.files == 0 {
		// Every input corrupt: nothing to aggregate, now or later.
		st.barren.Store(j.cascadeWindow, true)
		return nil
	}
	return st.Put(acc.snapshot(j.agg, j.level+1, j.window))
}

// Retention deletes the oldest files of each level beyond the configured
// Retain cap, but never deletes a file that has not yet been folded into
// an existing upper-level aggregate.
func (st *Store) Retention(agg string) error {
	for level := Minutely; level <= MaxLevel; level++ {
		keep := st.Retain[level]
		if keep <= 0 {
			continue
		}
		starts, err := st.List(agg, level)
		if err != nil {
			return err
		}
		if len(starts) <= keep {
			continue
		}
		var upperStarts map[int64]bool
		if level < MaxLevel {
			us, err := st.List(agg, level+1)
			if err != nil {
				return err
			}
			upperStarts = make(map[int64]bool, len(us))
			for _, u := range us {
				upperStarts[u] = true
			}
		}
		// The removes and the listing's invalidation are one step to a
		// reader of the listing (see Put).
		st.listMu.Lock()
		for _, s := range starts[:len(starts)-keep] {
			if level < MaxLevel {
				w := s - s%(level+1).Seconds()
				if !upperStarts[w] {
					continue // not yet aggregated; keep
				}
			}
			st.listCache[level] = nil
			// A file already gone is what Retention wants: a Retention
			// beside this one may have taken it.
			if err = os.Remove(st.path(fileKey{agg, level, s})); err != nil && !errors.Is(err, fs.ErrNotExist) {
				break
			}
			err = nil
			st.files.drop(fileKey{agg, level, s})
		}
		st.listMu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}
