package buffer

import (
	"testing"
	"testing/quick"

	"gemsim/internal/model"
)

func pg(n int32) model.PageID { return model.PageID{File: 1, Page: n} }

func TestInsertAndGet(t *testing.T) {
	b := NewPool(4)
	f, _, evicted := b.Insert(pg(1), 5, false)
	if evicted {
		t.Fatal("unexpected victim")
	}
	if f.SeqNo != 5 || f.Dirty {
		t.Fatalf("frame %+v", f)
	}
	if got := b.Get(pg(1)); got != f {
		t.Fatal("get returned different frame")
	}
	if b.Get(pg(2)) != nil {
		t.Fatal("absent page returned")
	}
}

func TestLRUEviction(t *testing.T) {
	b := NewPool(2)
	b.Insert(pg(1), 1, false)
	b.Insert(pg(2), 1, true)
	b.Get(pg(1)) // promote 1
	_, victim, evicted := b.Insert(pg(3), 1, false)
	if !evicted || victim.Page != pg(2) || !victim.Dirty || victim.SeqNo != 1 {
		t.Fatalf("victim %+v, want dirty page 2", victim)
	}
	if b.Peek(pg(2)) != nil {
		t.Fatal("evicted page still present")
	}
}

func TestFixedFramesSkipped(t *testing.T) {
	b := NewPool(2)
	f1, _, _ := b.Insert(pg(1), 1, false)
	b.Insert(pg(2), 1, false)
	f1.Fix()
	_, victim, evicted := b.Insert(pg(3), 1, false)
	if !evicted || victim.Page != pg(2) {
		t.Fatalf("victim %+v, want page 2 (page 1 is fixed)", victim)
	}
	f1.Unfix()
}

func TestAllFixedOverflows(t *testing.T) {
	b := NewPool(2)
	f1, _, _ := b.Insert(pg(1), 1, false)
	f2, _, _ := b.Insert(pg(2), 1, false)
	f1.Fix()
	f2.Fix()
	if _, _, evicted := b.Insert(pg(3), 1, false); evicted {
		t.Fatal("no evictable frame, yet a victim was returned")
	}
	if b.Len() != 3 {
		t.Fatalf("len %d, want 3 (overflow)", b.Len())
	}
	if b.Overflows() != 1 {
		t.Fatalf("overflows %d", b.Overflows())
	}
	f1.Unfix()
	f2.Unfix()
}

func TestReinsertRefreshes(t *testing.T) {
	b := NewPool(2)
	b.Insert(pg(1), 3, false)
	f, _, evicted := b.Insert(pg(1), 5, true)
	if evicted {
		t.Fatal("re-insert must not evict")
	}
	if f.SeqNo != 5 || !f.Dirty {
		t.Fatalf("frame %+v", f)
	}
	// Lower seqno must not regress the frame.
	f2, _, _ := b.Insert(pg(1), 4, false)
	if f2.SeqNo != 5 || !f2.Dirty {
		t.Fatalf("frame regressed: %+v", f2)
	}
}

func TestDrop(t *testing.T) {
	b := NewPool(2)
	b.Insert(pg(1), 1, false)
	b.Drop(pg(1))
	if b.Peek(pg(1)) != nil {
		t.Fatal("dropped page still present")
	}
	b.Drop(pg(9)) // absent: no-op
}

func TestDropFixedPanics(t *testing.T) {
	b := NewPool(2)
	f, _, _ := b.Insert(pg(1), 1, false)
	f.Fix()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic dropping fixed frame")
		}
	}()
	b.Drop(pg(1))
}

func TestZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPool(0)
}

func TestUnfixUnfixedPanics(t *testing.T) {
	b := NewPool(2)
	f, _, _ := b.Insert(pg(1), 1, false)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.Unfix()
}

func TestHitStats(t *testing.T) {
	b := NewPool(2)
	b.Observe(1, true)
	b.Observe(1, true)
	b.Observe(1, false)
	if got := b.HitRatio(1); got < 0.66 || got > 0.67 {
		t.Fatalf("hit ratio %v", got)
	}
	hits, total := b.HitCounts(1)
	if hits != 2 || total != 3 {
		t.Fatalf("counts %d/%d", hits, total)
	}
	if b.HitRatio(2) != 0 {
		t.Fatal("unknown file must report 0")
	}
	b.ResetStats()
	if _, total := b.HitCounts(1); total != 0 {
		t.Fatal("reset failed")
	}
}

func TestPagesIteration(t *testing.T) {
	b := NewPool(3)
	b.Insert(pg(1), 1, false)
	b.Insert(pg(2), 1, false)
	count := 0
	b.Pages(func(f *Frame) { count++ })
	if count != 2 {
		t.Fatalf("iterated %d frames", count)
	}
}

// TestPoolCapacityProperty drives random operations and verifies the
// pool never exceeds capacity while no frames are fixed.
func TestPoolCapacityProperty(t *testing.T) {
	err := quick.Check(func(ops []uint16, capRaw uint8) bool {
		capacity := int(capRaw%8) + 1
		b := NewPool(capacity)
		for _, op := range ops {
			p := pg(int32(op % 32))
			switch op % 4 {
			case 0, 1:
				b.Insert(p, uint64(op), op%5 == 0)
			case 2:
				b.Get(p)
			case 3:
				b.Drop(p)
			}
			if b.Len() > capacity {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

// TestVictimConservationProperty: every page inserted is either still
// in the pool, was returned as a victim, or was dropped.
func TestVictimConservationProperty(t *testing.T) {
	err := quick.Check(func(pages []uint8) bool {
		b := NewPool(4)
		inserted := make(map[model.PageID]bool)
		evicted := make(map[model.PageID]bool)
		for _, raw := range pages {
			p := pg(int32(raw % 32))
			_, victim, ok := b.Insert(p, 1, false)
			inserted[p] = true
			if ok {
				evicted[victim.Page] = true
				delete(inserted, victim.Page)
			}
			delete(evicted, p) // may be re-inserted later
		}
		for p := range inserted {
			if b.Peek(p) == nil {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLRUOrderMatchesReference drives random inserts, hits, drops and
// fixes through the pool and through a plain slice-ordered LRU model,
// and requires the same victims and the same MRU-to-LRU page order
// after every operation.
func TestLRUOrderMatchesReference(t *testing.T) {
	err := quick.Check(func(ops []uint16) bool {
		const capacity = 5
		b := NewPool(capacity)
		var ref []model.PageID // ref[0] is the MRU page
		fixed := make(map[model.PageID]bool)
		promote := func(p model.PageID) {
			for i, q := range ref {
				if q == p {
					ref = append(ref[:i], ref[i+1:]...)
					break
				}
			}
			ref = append([]model.PageID{p}, ref...)
		}
		for _, op := range ops {
			p := pg(int32(op % 12))
			switch op % 5 {
			case 0, 1:
				_, victim, evicted := b.Insert(p, 1, false)
				var want model.PageID
				wantEvicted := false
				if b.Peek(p) != nil && !contains(ref, p) && len(ref) >= capacity {
					for i := len(ref) - 1; i >= 0; i-- {
						if !fixed[ref[i]] {
							want, wantEvicted = ref[i], true
							ref = append(ref[:i], ref[i+1:]...)
							break
						}
					}
				}
				if evicted != wantEvicted || (evicted && victim.Page != want) {
					return false
				}
				promote(p)
			case 2:
				if (b.Get(p) != nil) != contains(ref, p) {
					return false
				}
				if contains(ref, p) {
					promote(p)
				}
			case 3:
				if !fixed[p] && contains(ref, p) {
					b.Drop(p)
					for i, q := range ref {
						if q == p {
							ref = append(ref[:i], ref[i+1:]...)
							break
						}
					}
				}
			case 4:
				if f := b.Peek(p); f != nil {
					if fixed[p] {
						f.Unfix()
					} else {
						f.Fix()
					}
					fixed[p] = !fixed[p]
				}
			}
			var order []model.PageID
			b.Pages(func(f *Frame) { order = append(order, f.Page) })
			if len(order) != len(ref) || b.Len() != len(ref) {
				return false
			}
			for i := range order {
				if order[i] != ref[i] {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func contains(pages []model.PageID, p model.PageID) bool {
	for _, q := range pages {
		if q == p {
			return true
		}
	}
	return false
}

// TestFramesAreReused checks that a full pool allocates no frames: an
// insert refills the frame it evicts, and a dropped frame serves the
// next insert.
func TestFramesAreReused(t *testing.T) {
	b := NewPool(2)
	f1, _, _ := b.Insert(pg(1), 1, false)
	b.Insert(pg(2), 1, false)
	f3, victim, evicted := b.Insert(pg(3), 4, true)
	if !evicted || victim.Page != pg(1) || f3 != f1 {
		t.Fatalf("insert into a full pool must refill the evicted frame (victim %+v)", victim)
	}
	if f3.Page != pg(3) || f3.SeqNo != 4 || !f3.Dirty || f3.Fixed() {
		t.Fatalf("refilled frame %+v", f3)
	}
	f2 := b.Peek(pg(2))
	b.Drop(pg(2))
	if f4, _, evicted := b.Insert(pg(4), 1, false); evicted || f4 != f2 {
		t.Fatal("insert after a drop must reuse the dropped frame without evicting")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		b.Insert(pg(5), 1, false)
		b.Drop(pg(5))
		b.Insert(pg(6), 1, false)
	}); allocs != 0 {
		t.Fatalf("%v allocations per insert/drop cycle, want 0", allocs)
	}
}

// TestDropAllFramesNeverReused checks that the frames DropAll detaches,
// which in-flight transactions of a crashed node may still hold, are
// never handed out again, while frames dropped afterwards are.
func TestDropAllFramesNeverReused(t *testing.T) {
	b := NewPool(2)
	f1, _, _ := b.Insert(pg(1), 1, false)
	f2, _, _ := b.Insert(pg(2), 1, false)
	f1.Fix()
	b.DropAll()
	f1.Unfix() // a stale pointer stays harmless
	seen := map[*Frame]bool{}
	for i := int32(10); i < 20; i++ {
		f, _, _ := b.Insert(pg(i), 1, false)
		if f == f1 || f == f2 {
			t.Fatalf("insert %d handed out a frame detached by DropAll", i)
		}
		seen[f] = true
	}
	if len(seen) != 2 {
		t.Fatalf("%d distinct frames for a 2-page pool after DropAll, want 2", len(seen))
	}
}
