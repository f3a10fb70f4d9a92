// Package buffer implements the per-node main memory database buffer:
// an LRU pool of page frames with fix counts, dirty tracking and page
// sequence numbers. Page sequence numbers are incremented on every
// modification and are the basis of buffer invalidation detection: a
// cached copy whose sequence number is below the committed global one
// is obsolete [Ra86, Ra91b].
//
// The pool is a pure data structure; all I/O and coherency decisions
// are made by the node layer.
package buffer

import (
	"gemsim/internal/model"
	"gemsim/internal/stats"
)

// Frame is one buffered page.
type Frame struct {
	Page  model.PageID
	SeqNo uint64
	Dirty bool

	fixCount   int
	prev, next *Frame // LRU neighbours: prev is more recently used
}

// Fixed reports whether the frame is pinned against replacement.
func (f *Frame) Fixed() bool { return f.fixCount > 0 }

// Fix pins the frame against replacement.
func (f *Frame) Fix() { f.fixCount++ }

// Unfix releases one pin.
func (f *Frame) Unfix() {
	if f.fixCount == 0 {
		panic("buffer: unfix of unfixed frame " + f.Page.String())
	}
	f.fixCount--
}

// Victim describes an evicted page that may need writing back.
type Victim struct {
	Page  model.PageID
	SeqNo uint64
	Dirty bool
}

// Pool is one node's LRU database buffer. The LRU chain is intrusive
// (links in Frame), and Insert reuses the frame it evicts or one that
// Drop freed, so a full pool allocates no frames at all.
type Pool struct {
	capacity int
	mru, lru *Frame // chain ends; nil when empty
	frames   int
	index    map[model.PageID]*Frame
	free     []*Frame // frames removed by Drop, unfixed and unlinked

	hitsByFile map[model.FileID]*stats.Ratio
	overflow   int64
}

// NewPool creates a buffer of the given capacity in pages.
func NewPool(capacity int) *Pool {
	if capacity <= 0 {
		panic("buffer: capacity must be positive")
	}
	return &Pool{
		capacity:   capacity,
		index:      make(map[model.PageID]*Frame, capacity),
		hitsByFile: make(map[model.FileID]*stats.Ratio),
	}
}

// Len returns the number of buffered pages.
func (b *Pool) Len() int { return b.frames }

// pushFront links f in as the most recently used frame.
func (b *Pool) pushFront(f *Frame) {
	f.prev, f.next = nil, b.mru
	if b.mru != nil {
		b.mru.prev = f
	} else {
		b.lru = f
	}
	b.mru = f
	b.frames++
}

// unlink removes f from the LRU chain.
func (b *Pool) unlink(f *Frame) {
	if f.prev != nil {
		f.prev.next = f.next
	} else {
		b.mru = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else {
		b.lru = f.prev
	}
	f.prev, f.next = nil, nil
	b.frames--
}

// moveToFront promotes f to most recently used.
func (b *Pool) moveToFront(f *Frame) {
	if b.mru == f {
		return
	}
	b.unlink(f)
	b.pushFront(f)
}

// Get returns the frame for page and promotes it to MRU, or nil.
func (b *Pool) Get(page model.PageID) *Frame {
	f, ok := b.index[page]
	if !ok {
		return nil
	}
	b.moveToFront(f)
	return f
}

// Peek returns the frame without touching LRU state, or nil.
func (b *Pool) Peek(page model.PageID) *Frame { return b.index[page] }

// Observe records a logical buffer hit or miss for the page's file
// (used for the per-partition hit ratios reported in the paper).
func (b *Pool) Observe(file model.FileID, hit bool) {
	r := b.hitsByFile[file]
	if r == nil {
		r = &stats.Ratio{}
		b.hitsByFile[file] = r
	}
	r.Observe(hit)
}

// HitRatio returns the observed hit ratio for a file.
func (b *Pool) HitRatio(file model.FileID) float64 {
	if r := b.hitsByFile[file]; r != nil {
		return r.Value()
	}
	return 0
}

// HitCounts returns (hits, total) observations for a file.
func (b *Pool) HitCounts(file model.FileID) (int64, int64) {
	if r := b.hitsByFile[file]; r != nil {
		return r.Hits(), r.Total()
	}
	return 0, 0
}

// Insert places a page at the MRU position with the given sequence
// number and dirty state, evicting the least recently used unfixed
// frame when full. When evicted is true, victim describes the evicted
// page, which the caller must write back when dirty. Inserting an
// already buffered page refreshes its state instead.
//
// When every frame is fixed the pool grows past capacity rather than
// failing (the overflow count is reported); with realistic MPL settings
// this does not occur.
func (b *Pool) Insert(page model.PageID, seqno uint64, dirty bool) (f *Frame, victim Victim, evicted bool) {
	if f, ok := b.index[page]; ok {
		if seqno > f.SeqNo {
			f.SeqNo = seqno
		}
		f.Dirty = f.Dirty || dirty
		b.moveToFront(f)
		return f, Victim{}, false
	}
	if b.frames >= b.capacity {
		for vf := b.lru; vf != nil; vf = vf.prev {
			if vf.Fixed() {
				continue
			}
			victim = Victim{Page: vf.Page, SeqNo: vf.SeqNo, Dirty: vf.Dirty}
			evicted = true
			b.unlink(vf)
			delete(b.index, vf.Page)
			f = vf
			break
		}
		if !evicted {
			b.overflow++
		}
	}
	if n := len(b.free); f == nil && n > 0 {
		f, b.free = b.free[n-1], b.free[:n-1]
	} else if f == nil {
		f = new(Frame)
	}
	f.Page, f.SeqNo, f.Dirty = page, seqno, dirty
	b.pushFront(f)
	b.index[page] = f
	return f, victim, evicted
}

// Drop removes a page (buffer invalidation discard) and keeps its frame
// for the next Insert; fixed frames must not be dropped.
func (b *Pool) Drop(page model.PageID) {
	f, ok := b.index[page]
	if !ok {
		return
	}
	if f.Fixed() {
		panic("buffer: dropping fixed frame " + page.String())
	}
	b.unlink(f)
	delete(b.index, page)
	b.free = append(b.free, f)
}

// Overflows returns how often an insert found no evictable frame.
func (b *Pool) Overflows() int64 { return b.overflow }

// ResetStats clears the per-file hit statistics.
func (b *Pool) ResetStats() {
	for _, r := range b.hitsByFile {
		r.Reset()
	}
	b.overflow = 0
}

// Pages calls fn for every buffered page (diagnostics and tests).
func (b *Pool) Pages(fn func(*Frame)) {
	for f := b.mru; f != nil; f = f.next {
		fn(f)
	}
}

// DropAll discards every frame, fixed or not, modelling the loss of a
// node's main memory buffer at a crash. Detached frames, which in-flight
// transactions may still hold, keep their fix counts and are never
// reused, so a later Unfix on a stale pointer is harmless.
func (b *Pool) DropAll() {
	for f := b.mru; f != nil; {
		next := f.next
		f.prev, f.next = nil, nil
		f = next
	}
	b.mru, b.lru, b.frames = nil, nil, 0
	b.index = make(map[model.PageID]*Frame, b.capacity)
}
