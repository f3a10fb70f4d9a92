// Package pagedir is the page directory of one simulated system: it
// resolves a page to a small integer slot once per reference and keeps
// all of the page's system-wide state in that slot — the coherency
// metadata of the global lock table or the page's GLA partition, the
// handle of its lock entry, its GEM write-buffer version and whether an
// append-only page has reached storage. Per-node and per-transaction
// state is keyed by the slot, so a reference hashes its page once.
//
// Slots are handed out in first-touch order from fixed slabs that are
// never moved or grown, so a slot pointer stays valid for the
// directory's lifetime. The index from page to slot is a flat
// open-addressed map. Slots and the index hold no pointers, so the
// garbage collector never scans them.
package pagedir

import (
	"gemsim/internal/flatmap"
	"gemsim/internal/model"
)

// slabSlots is the number of slots per slab.
const slabSlots = 128

// Slot is one page's system-wide state.
type Slot struct {
	Page model.PageID
	// Seq is the committed page sequence number and Owner the node
	// buffering the current version (-1: permanent storage), as the
	// global lock table or the page's GLA partition records them.
	Seq uint64
	// WBSeq is the version held in the GEM write buffer while
	// Buffered is set.
	WBSeq uint64
	Owner int32
	// Lock is the page's lock entry handle in its lock table; 0 when
	// the page has no entry.
	Lock int32
	// Part is the page's GLA partition plus one, once known; 0 before.
	Part int32
	// Meta marks coherency metadata a GLA partition has recorded
	// (partition handoffs are costed per such page); Buffered a
	// write-buffer version; Stored an append-only page that reached
	// permanent storage.
	Meta, Buffered, Stored bool
}

// Dir is a page directory.
type Dir struct {
	index flatmap.Map[model.PageID, int32] // slot plus one
	slabs []*[slabSlots]Slot
	// words per slot of bit words (Words), and their slabs.
	words     int
	wordSlabs [][]uint64
}

// New returns an empty directory whose slots carry words bit words
// each (none when words is 0).
func New(words int) *Dir {
	return &Dir{index: flatmap.Make[model.PageID, int32](model.PageID.Key, 0), words: words}
}

// Len reports the number of pages in the directory.
func (d *Dir) Len() int { return d.index.Len() }

// Of returns page's slot, assigning the next one (Owner -1, all else
// zero) on first touch.
func (d *Dir) Of(page model.PageID) int32 {
	if i, ok := d.Find(page); ok {
		return i
	}
	i := int32(d.index.Len())
	if i%slabSlots == 0 {
		d.slabs = append(d.slabs, new([slabSlots]Slot))
		if d.words > 0 {
			d.wordSlabs = append(d.wordSlabs, make([]uint64, slabSlots*d.words))
		}
	}
	d.index.Put(page, i+1)
	*d.At(i) = Slot{Page: page, Owner: -1}
	return i
}

// Find returns page's slot without creating one.
func (d *Dir) Find(page model.PageID) (int32, bool) {
	i := d.index.Get(page)
	return i - 1, i != 0
}

// At returns slot i.
func (d *Dir) At(i int32) *Slot { return &d.slabs[i/slabSlots][i%slabSlots] }

// Page returns the page of slot i.
func (d *Dir) Page(i int32) model.PageID { return d.At(i).Page }

// Words returns slot i's bit words.
func (d *Dir) Words(i int32) []uint64 {
	k := int(i%slabSlots) * d.words
	return d.wordSlabs[i/slabSlots][k : k+d.words : k+d.words]
}
