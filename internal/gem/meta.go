package gem

import "gemsim/internal/model"

// PageMeta is the per-page coherency control information kept in GEM
// (the GLT extension) or at a GLA node: the committed sequence number
// and, under NOFORCE, the node buffering the current version.
type PageMeta struct {
	Seq   uint64
	Owner int // node holding the current version, -1 if on permanent storage
}

// slabPages is the number of metadata slots per slab.
const slabPages = 128

// MetaTable maps pages to their coherency metadata. Slots are handed
// out in first-touch order from fixed slabs of slabPages entries; slabs
// are never moved or grown, so a pointer returned by Of stays valid for
// the table's lifetime. The index maps a page to its slot number and
// holds no pointers, so the garbage collector never scans it. A touch
// of a new page costs one index entry and one 16-byte slot, however
// uniformly a large file (the debit-credit ACCOUNT file) is accessed.
type MetaTable struct {
	idx   map[model.PageID]int32
	slabs []*[slabPages]PageMeta
}

// NewMetaTable returns an empty metadata table.
func NewMetaTable() *MetaTable {
	return &MetaTable{idx: make(map[model.PageID]int32)}
}

// Len reports the number of pages with metadata present.
func (t *MetaTable) Len() int { return len(t.idx) }

func (t *MetaTable) slot(i int32) *PageMeta {
	return &t.slabs[i/slabPages][i%slabPages]
}

// Of returns the metadata slot for page, creating it (Owner -1, Seq 0)
// on first touch.
func (t *MetaTable) Of(page model.PageID) *PageMeta {
	if i, ok := t.idx[page]; ok {
		return t.slot(i)
	}
	i := int32(len(t.idx))
	if i%slabPages == 0 {
		t.slabs = append(t.slabs, new([slabPages]PageMeta))
	}
	t.idx[page] = i
	m := t.slot(i)
	m.Owner = -1
	return m
}

// Peek returns a copy of the page's metadata without creating it; an
// absent page reads as a fresh slot (Seq 0, Owner -1).
func (t *MetaTable) Peek(page model.PageID) PageMeta {
	if i, ok := t.idx[page]; ok {
		return *t.slot(i)
	}
	return PageMeta{Owner: -1}
}

// Range calls fn for every present page, in no particular order.
func (t *MetaTable) Range(fn func(model.PageID, *PageMeta)) {
	for page, i := range t.idx {
		fn(page, t.slot(i))
	}
}
