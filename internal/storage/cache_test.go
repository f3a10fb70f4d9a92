package storage

import (
	"testing"
	"testing/quick"

	"gemsim/internal/buffer"
	"gemsim/internal/model"
	"gemsim/internal/sim"
)

// runCached runs one process per fn against a group fronted by a
// one-disk cache of the given size, until the simulation is idle.
func runCached(t *testing.T, size int, volatile bool, fns ...func(g *Group, p *sim.Proc)) *Group {
	t.Helper()
	env := sim.NewEnv()
	defer env.Stop()
	params := DefaultDBParams(1)
	params.Cache = &CacheParams{SizePages: size, Volatile: volatile}
	g := NewGroup(env, "db", params)
	for _, fn := range fns {
		env.Spawn("u", func(p *sim.Proc) { fn(g, p) })
	}
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCacheLRUOrder(t *testing.T) {
	var hits []bool
	g := runCached(t, 2, true, func(g *Group, p *sim.Proc) {
		for _, n := range []int32{1, 2, 1, 3} { // the hit on 1 makes 2 the LRU victim
			hits = append(hits, readPage(g, p, page(n)))
		}
	})
	if hits[0] || hits[1] || !hits[2] || hits[3] {
		t.Fatalf("hits %v, want only the re-read of page 1", hits)
	}
	c := g.Cache()
	if c.Peek(page(1)) == nil || c.Peek(page(3)) == nil || c.Peek(page(2)) != nil {
		t.Fatal("wrong cache content after eviction")
	}
}

// TestCacheInsertExistingMergesDirty: a read miss fills the cache
// clean when its transfer completes; a write absorbed meanwhile keeps
// the entry dirty.
func TestCacheInsertExistingMergesDirty(t *testing.T) {
	g := runCached(t, 2, false,
		func(g *Group, p *sim.Proc) { readPage(g, p, page(1)) },  // disk read, 16.4 ms
		func(g *Group, p *sim.Proc) { writePage(g, p, page(1)) }, // absorbed, 1.4 ms
	)
	c := g.Cache()
	if f := c.Peek(page(1)); f == nil || !f.Dirty {
		t.Fatal("dirty state must be sticky across re-insert")
	}
	if c.Len() != 1 || g.Destages() != 0 {
		t.Fatalf("len %d destages %d, want one entry and no destage", c.Len(), g.Destages())
	}
}

// TestCacheClean checks that a destage finishing after its page was
// evicted leaves the cache alone.
func TestCacheClean(t *testing.T) {
	g := runCached(t, 1, false, func(g *Group, p *sim.Proc) {
		writePage(g, p, page(1))
		writePage(g, p, page(2)) // evicts dirty page 1: background destage
	})
	if g.Destages() != 1 {
		t.Fatalf("destages %d, want 1", g.Destages())
	}
	c := g.Cache()
	if c.Peek(page(1)) != nil {
		t.Fatal("destage of an evicted page must not re-cache it")
	}
	if f := c.Peek(page(2)); f == nil || !f.Dirty {
		t.Fatal("the resident page must stay cached and dirty")
	}
}

func TestCacheVictimDirtyFlag(t *testing.T) {
	for _, volatile := range []bool{false, true} {
		g := runCached(t, 1, volatile, func(g *Group, p *sim.Proc) {
			writePage(g, p, page(1)) // absorbed (dirty) or written through (clean)
			readPage(g, p, page(2))  // miss: page 1 is the victim
		})
		want := int64(1)
		if volatile {
			want = 0
		}
		if g.Destages() != want {
			t.Fatalf("volatile=%v: destages %d, want %d", volatile, g.Destages(), want)
		}
	}
}

// TestCacheNeverExceedsCapacityProperty drives random read/write
// sequences through a cached group: after every request the page is
// cached (dirty after an absorbed write) and the cache stays within
// its capacity.
func TestCacheNeverExceedsCapacityProperty(t *testing.T) {
	err := quick.Check(func(ops []uint16, capRaw uint8, volatile bool) bool {
		capacity := int(capRaw%16) + 1
		ok := true
		g := runCached(t, capacity, volatile, func(g *Group, p *sim.Proc) {
			for _, op := range ops {
				pg := model.PageID{File: 1, Page: int32(op % 64)}
				write := op%3 == 0
				if write {
					writePage(g, p, pg)
				} else {
					readPage(g, p, pg)
				}
				f := g.Cache().Peek(pg)
				if f == nil || write && !volatile && !f.Dirty || g.Cache().Len() > capacity {
					ok = false
				}
			}
		})
		n := 0
		g.Cache().Pages(func(*buffer.Frame[model.PageID]) { n++ })
		return ok && n == g.Cache().Len()
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}
