package tsv

import (
	"os"
	"sync"
	"sync/atomic"
)

// The file table's bound: at full scale query-mix reads ≈ 430 files.
const (
	maxOpenFiles  = 1024
	maxFrameBytes = 16 << 20
)

// fileKey names one stored file.
type fileKey struct {
	agg   string
	level Level
	start int64
}

// openFile is a file the table holds open, with its size and a copy of
// the frame its first read checked (a text file's: its names and kinds).
type openFile struct {
	file  *os.File
	size  int64
	frame *colFrame // &fr once admitted
	fr    colFrame
	cost  int  // fr's bytes
	refs  int  // reads pinned to it
	gone  bool // out of the table: its last unpin closes it
}

// fileTable is a store's bounded table of open snapshot files. Put and
// Retention drop an entry once they have replaced or removed its file; a
// dropped entry stays open while reads are pinned to it.
type fileTable struct {
	mu     sync.Mutex
	files  map[fileKey]*openFile
	bytes  int    // frame bytes held
	gen    uint64 // counts drops: a read that missed before one does not admit
	closed bool

	open                    atomic.Int64
	hits, misses, evictions atomic.Uint64
}

// pin returns k's entry, pinned until unpin, or nil and the generation
// a read of the file from disk must admit it under.
func (t *fileTable) pin(k fileKey) (*openFile, uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.files[k]
	if e == nil {
		t.misses.Add(1)
		return nil, t.gen
	}
	t.hits.Add(1)
	e.refs++
	return e, 0
}

func (t *fileTable) unpin(e *openFile) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e.refs--; e.refs == 0 && e.gone {
		t.close(e)
	}
}

// admit keeps file, which a read that missed under gen found valid, as
// k's entry with a copy of fr. To make room it evicts whichever
// unpinned entries the map yields first: map order is random, so a
// range longer than the bound still finds part of itself open. It
// declines, leaving the file to the caller, when the table is closed, a
// drop came after the miss, k is already held, or every entry is pinned.
func (t *fileTable) admit(k fileKey, file *os.File, size int64, fr *colFrame, gen uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed || gen != t.gen || t.files[k] != nil {
		return false
	}
	e := &openFile{file: file, size: size}
	e.frame, e.cost = &e.fr, fr.cloneInto(&e.fr)
evict:
	for len(t.files) >= maxOpenFiles || t.bytes+e.cost > maxFrameBytes {
		for k, victim := range t.files {
			if victim.refs == 0 {
				t.remove(k, victim)
				t.evictions.Add(1)
				continue evict
			}
		}
		return false
	}
	if t.files == nil {
		t.files = make(map[fileKey]*openFile)
	}
	t.files[k] = e
	t.bytes += e.cost
	t.open.Add(1)
	return true
}

// drop takes k's entry out: its file was just replaced or removed.
func (t *fileTable) drop(k fileKey) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gen++
	if e := t.files[k]; e != nil {
		t.remove(k, e)
	}
}

// closeAll empties the table for good.
func (t *fileTable) closeAll() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	for k, e := range t.files {
		t.remove(k, e)
	}
}

// remove takes e out of the table and closes it, now or at its last
// unpin. The caller holds mu.
func (t *fileTable) remove(k fileKey, e *openFile) {
	delete(t.files, k)
	t.bytes -= e.cost
	if e.gone = true; e.refs == 0 {
		t.close(e)
	}
}

func (t *fileTable) close(e *openFile) {
	e.file.Close()
	t.open.Add(-1)
}
