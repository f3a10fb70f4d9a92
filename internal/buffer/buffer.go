// Package buffer implements the per-node main memory database buffer:
// an LRU pool of page frames with fix counts, dirty tracking and page
// sequence numbers. Page sequence numbers are incremented on every
// modification and are the basis of buffer invalidation detection: a
// cached copy whose sequence number is below the committed global one
// is obsolete [Ra86, Ra91b].
//
// The pool is a pure data structure; all I/O and coherency decisions
// are made by the node layer. It is keyed by K: a node's pool by the
// page's directory slot, a disk cache by the page id.
package buffer

import (
	"fmt"

	"gemsim/internal/flatmap"
	"gemsim/internal/stats"
)

// Frame is one buffered page.
type Frame[K comparable] struct {
	Page  K
	SeqNo uint64
	Dirty bool

	fixCount   int
	prev, next *Frame[K] // LRU neighbours: prev is more recently used
}

// Fixed reports whether the frame is pinned against replacement.
func (f *Frame[K]) Fixed() bool { return f.fixCount > 0 }

// Fix pins the frame against replacement.
func (f *Frame[K]) Fix() { f.fixCount++ }

// Unfix releases one pin.
func (f *Frame[K]) Unfix() {
	if f.fixCount == 0 {
		panic(fmt.Sprintf("buffer: unfix of unfixed frame %v", f.Page))
	}
	f.fixCount--
}

// Victim describes an evicted page that may need writing back.
type Victim[K comparable] struct {
	Page  K
	SeqNo uint64
	Dirty bool
}

// Pool is one node's LRU database buffer. The LRU chain is intrusive
// (links in Frame), the index a flat map, and Insert reuses the frame
// it evicts or one that Drop freed, so a full pool allocates nothing.
type Pool[K comparable] struct {
	capacity int
	mru, lru *Frame[K] // chain ends; nil when empty
	index    flatmap.Map[K, *Frame[K]]
	free     []*Frame[K] // frames removed by Drop, unfixed and unlinked

	hitsByFile []stats.Ratio // by the file's position in the database
	overflow   int64
}

// NewPool creates a buffer of the given capacity in pages, hashing
// page keys with hash.
func NewPool[K comparable](capacity int, hash func(K) uint64) *Pool[K] {
	if capacity <= 0 {
		panic("buffer: capacity must be positive")
	}
	return &Pool[K]{
		capacity: capacity,
		index:    flatmap.Make[K, *Frame[K]](hash, capacity),
	}
}

// Len returns the number of buffered pages.
func (b *Pool[K]) Len() int { return b.index.Len() }

// pushFront links f in as the most recently used frame.
func (b *Pool[K]) pushFront(f *Frame[K]) {
	f.prev, f.next = nil, b.mru
	if b.mru != nil {
		b.mru.prev = f
	} else {
		b.lru = f
	}
	b.mru = f
}

// unlink removes f from the LRU chain.
func (b *Pool[K]) unlink(f *Frame[K]) {
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
}

// moveToFront promotes f to most recently used.
func (b *Pool[K]) moveToFront(f *Frame[K]) {
	if b.mru == f {
		return
	}
	b.unlink(f)
	b.pushFront(f)
}

// Get returns the frame for page and promotes it to MRU, or nil.
func (b *Pool[K]) Get(page K) *Frame[K] {
	f := b.index.Get(page)
	if f != nil {
		b.moveToFront(f)
	}
	return f
}

// Peek returns the frame without touching LRU state, or nil.
func (b *Pool[K]) Peek(page K) *Frame[K] { return b.index.Get(page) }

// Observe records a logical buffer hit or miss for the page's file
// (used for the per-partition hit ratios reported in the paper). Files
// are named by their position in the database (model.Database.Files).
func (b *Pool[K]) Observe(file int, hit bool) {
	if file >= len(b.hitsByFile) {
		b.hitsByFile = append(b.hitsByFile, make([]stats.Ratio, file+1-len(b.hitsByFile))...)
	}
	b.hitsByFile[file].Observe(hit)
}

// HitRatio returns the observed hit ratio for the file at position
// file.
func (b *Pool[K]) HitRatio(file int) float64 {
	if file < len(b.hitsByFile) {
		return b.hitsByFile[file].Value()
	}
	return 0
}

// HitCounts returns (hits, total) observations for the file at
// position file.
func (b *Pool[K]) HitCounts(file int) (int64, int64) {
	if file < len(b.hitsByFile) {
		return b.hitsByFile[file].Hits(), b.hitsByFile[file].Total()
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
func (b *Pool[K]) Insert(page K, seqno uint64, dirty bool) (f *Frame[K], victim Victim[K], evicted bool) {
	if f := b.index.Get(page); f != nil {
		if seqno > f.SeqNo {
			f.SeqNo = seqno
		}
		f.Dirty = f.Dirty || dirty
		b.moveToFront(f)
		return f, Victim[K]{}, false
	}
	if b.index.Len() >= b.capacity {
		for vf := b.lru; vf != nil; vf = vf.prev {
			if vf.Fixed() {
				continue
			}
			victim = Victim[K]{Page: vf.Page, SeqNo: vf.SeqNo, Dirty: vf.Dirty}
			evicted = true
			b.unlink(vf)
			b.index.Delete(vf.Page)
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
		f = new(Frame[K])
	}
	f.Page, f.SeqNo, f.Dirty = page, seqno, dirty
	b.pushFront(f)
	b.index.Put(page, f)
	return f, victim, evicted
}

// Drop removes a page (buffer invalidation discard) and keeps its frame
// for the next Insert; fixed frames must not be dropped.
func (b *Pool[K]) Drop(page K) {
	f := b.index.Get(page)
	if f == nil {
		return
	}
	if f.Fixed() {
		panic(fmt.Sprintf("buffer: dropping fixed frame %v", page))
	}
	b.unlink(f)
	b.index.Delete(page)
	b.free = append(b.free, f)
}

// Overflows returns how often an insert found no evictable frame.
func (b *Pool[K]) Overflows() int64 { return b.overflow }

// ResetStats clears the per-file hit statistics.
func (b *Pool[K]) ResetStats() {
	clear(b.hitsByFile)
	b.overflow = 0
}

// Pages calls fn for every buffered page (diagnostics and tests).
func (b *Pool[K]) Pages(fn func(*Frame[K])) {
	for f := b.mru; f != nil; f = f.next {
		fn(f)
	}
}

// DropAll discards every frame, fixed or not, modelling the loss of a
// node's main memory buffer at a crash. Detached frames, which in-flight
// transactions may still hold, keep their fix counts and are never
// reused, so a later Unfix on a stale pointer is harmless.
func (b *Pool[K]) DropAll() {
	for f := b.mru; f != nil; {
		next := f.next
		f.prev, f.next = nil, nil
		f = next
	}
	b.mru, b.lru = nil, nil
	b.index.Reset(b.capacity)
}
