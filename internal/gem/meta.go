package gem

import (
	"math/bits"
	"sort"

	"gemsim/internal/model"
)

// PageMeta is the per-page coherency control information kept in GEM
// (the GLT extension) or at a GLA node: the committed sequence number
// and, under NOFORCE, the node buffering the current version.
type PageMeta struct {
	Seq   uint64
	Owner int // node holding the current version, -1 if on permanent storage
}

// chunkPages is the number of page slots per metadata chunk. 512 slots
// keep a chunk at ~8KB — big enough to amortize the map entry, small
// enough that sparse files waste little.
const (
	chunkPages = 512
	chunkShift = 9
	chunkMask  = chunkPages - 1
)

// chunkKey addresses one chunk: a file and a page-range index.
type chunkKey struct {
	file model.FileID
	base int32 // page >> chunkShift
}

// metaChunk is a dense array of page metadata with a presence bitmap.
type metaChunk struct {
	bits  [chunkPages / 64]uint64
	metas [chunkPages]PageMeta
}

// MetaTable maps pages to their coherency metadata. It replaces a
// map[PageID]*PageMeta: pages cluster densely within files, so chunked
// arrays with presence bitmaps cost one allocation per 512 pages
// instead of one per page, and lookups touch one map bucket plus an
// array index. Of is amortized allocation-free once a page's chunk
// exists, which keeps the Tier-1 commit path off the heap at
// hyperscale page populations.
type MetaTable struct {
	chunks map[chunkKey]*metaChunk
	count  int
}

// NewMetaTable returns an empty metadata table.
func NewMetaTable() *MetaTable {
	return &MetaTable{chunks: make(map[chunkKey]*metaChunk)}
}

// Len reports the number of pages with metadata present.
func (t *MetaTable) Len() int { return t.count }

// Of returns the metadata slot for page, creating it (Owner -1, Seq 0)
// on first touch.
func (t *MetaTable) Of(page model.PageID) *PageMeta {
	key := chunkKey{file: page.File, base: page.Page >> chunkShift}
	c := t.chunks[key]
	if c == nil {
		c = &metaChunk{}
		t.chunks[key] = c
	}
	off := uint32(page.Page) & chunkMask
	w, b := off>>6, off&63
	if c.bits[w]&(1<<b) == 0 {
		c.bits[w] |= 1 << b
		c.metas[off] = PageMeta{Owner: -1}
		t.count++
	}
	return &c.metas[off]
}

// Peek returns a copy of the page's metadata without creating it; an
// absent page reads as a fresh slot (Seq 0, Owner -1).
func (t *MetaTable) Peek(page model.PageID) PageMeta {
	off := uint32(page.Page) & chunkMask
	c := t.chunks[chunkKey{file: page.File, base: page.Page >> chunkShift}]
	if c == nil || c.bits[off>>6]&(1<<(off&63)) == 0 {
		return PageMeta{Owner: -1}
	}
	return c.metas[off]
}

// Range calls fn for every present page in deterministic order: chunks
// sorted by (file, base), pages ascending within each chunk.
func (t *MetaTable) Range(fn func(model.PageID, *PageMeta)) {
	keys := make([]chunkKey, 0, len(t.chunks))
	for k := range t.chunks {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].base < keys[j].base
	})
	for _, k := range keys {
		c := t.chunks[k]
		for w, word := range c.bits {
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &= word - 1
				off := int32(w<<6 + b)
				page := model.PageID{File: k.file, Page: k.base<<chunkShift | off}
				fn(page, &c.metas[off])
			}
		}
	}
}
