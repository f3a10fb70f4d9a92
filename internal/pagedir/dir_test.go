package pagedir

import (
	"math/rand"
	"testing"

	"gemsim/internal/model"
)

// shuffledPages returns n distinct pages over two files in a random
// order.
func shuffledPages(n int) []model.PageID {
	pages := make([]model.PageID, n)
	for i := range pages {
		pages[i] = model.PageID{File: model.FileID(1 + i%2), Page: int32(i / 2 * 3)}
	}
	rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { pages[i], pages[j] = pages[j], pages[i] })
	return pages
}

// TestFindDoesNotCreate: a read-only lookup of an absent page creates
// no slot (recovery reads the committed version of pages it may never
// have seen).
func TestFindDoesNotCreate(t *testing.T) {
	d := New(0)
	pg := model.PageID{File: 1, Page: 7}
	if _, ok := d.Find(pg); ok || d.Len() != 0 {
		t.Fatalf("absent page found, len %d", d.Len())
	}
	i := d.Of(pg)
	if s := d.At(i); s.Page != pg || s.Owner != -1 || s.Seq != 0 || s.Lock != 0 {
		t.Fatalf("fresh slot %+v, want page %v, owner -1, all else zero", *s, pg)
	}
	d.At(i).Seq = 3
	if j, ok := d.Find(pg); !ok || j != i || d.At(j).Seq != 3 {
		t.Fatalf("present page: Find = %d, %v; want %d", j, ok, i)
	}
	if _, ok := d.Find(model.PageID{File: 1, Page: 8}); ok || d.Len() != 1 {
		t.Fatalf("absent neighbour page found, len %d", d.Len())
	}
}

// TestSlotsFirstTouchOrder: slots are numbered in first-touch order,
// and a repeated touch returns the first one.
func TestSlotsFirstTouchOrder(t *testing.T) {
	pages := shuffledPages(3 * slabSlots)
	d := New(0)
	for i, pg := range pages {
		if got := d.Of(pg); got != int32(i) {
			t.Fatalf("first touch of %v: slot %d, want %d", pg, got, i)
		}
	}
	for i, pg := range pages {
		if got := d.Of(pg); got != int32(i) || d.Page(got) != pg {
			t.Fatalf("second touch of %v: slot %d (page %v), want %d", pg, got, d.Page(got), i)
		}
	}
	if d.Len() != len(pages) {
		t.Fatalf("Len %d, want %d", d.Len(), len(pages))
	}
}

// TestSlotsStableAcrossGrowth: a slot pointer taken early stays the
// page's slot while later pages add slabs, and so do its bit words.
func TestSlotsStableAcrossGrowth(t *testing.T) {
	const n = 1000
	pages := shuffledPages(n)
	d := New(2)
	ptrs := make([]*Slot, n)
	for i, pg := range pages {
		ptrs[i] = d.At(d.Of(pg))
		ptrs[i].Seq = uint64(i)
		d.Words(int32(i))[1] = uint64(i)
	}
	for i, pg := range pages {
		j := d.Of(pg)
		if s := d.At(j); s != ptrs[i] || s.Seq != uint64(i) || s.Page != pg {
			t.Fatalf("slot of %v moved: %p (seq %d), want %p (seq %d)", pg, s, s.Seq, ptrs[i], i)
		}
		if w := d.Words(j); len(w) != 2 || w[0] != 0 || w[1] != uint64(i) {
			t.Fatalf("words of %v: %v", pg, w)
		}
	}
}

// TestPresentLookupAllocFree: resolving a page already present
// allocates nothing.
func TestPresentLookupAllocFree(t *testing.T) {
	d := New(1)
	pages := shuffledPages(4 * slabSlots)
	for _, pg := range pages {
		d.Of(pg)
	}
	k := 0
	if n := testing.AllocsPerRun(500, func() {
		d.At(d.Of(pages[k%len(pages)])).Seq++
		k++
	}); n != 0 {
		t.Fatalf("present-page lookup allocates %.1f/op, want 0", n)
	}
}

// BenchmarkDirOf resolves pages already present in the directory,
// spread over a 4 M-page file as debit-credit spreads its ACCOUNT
// references. CI requires 0 allocs/op.
func BenchmarkDirOf(b *testing.B) {
	const filePages, present = 4 << 20, 1 << 16
	d := New(0)
	pages := make([]model.PageID, present)
	for i, j := range rand.New(rand.NewSource(1)).Perm(present) {
		pages[i] = model.PageID{File: 1, Page: int32(j * (filePages / present))}
		d.Of(pages[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.At(d.Of(pages[i%present])).Seq++
	}
}
