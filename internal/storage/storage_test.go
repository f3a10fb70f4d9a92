package storage

import (
	"testing"
	"time"

	"gemsim/internal/model"
	"gemsim/internal/sim"
)

func page(n int32) model.PageID { return model.PageID{File: 1, Page: n} }

// readPage and writePage are the process form of Access the tests use:
// the calling process parks until the page has been transferred, and
// learns whether the cache served the request.
func readPage(g *Group, p *sim.Proc, pg model.PageID) (hit bool) { return access(g, p, pg, false) }

func writePage(g *Group, p *sim.Proc, pg model.PageID) (absorbed bool) { return access(g, p, pg, true) }

func access(g *Group, p *sim.Proc, pg model.PageID, write bool) (cached bool) {
	g.Access(p.Continuation(), pg, write, func(c bool) { cached = c })
	p.Park()
	return cached
}

func TestPlainDiskReadTiming(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	g := NewGroup(env, "db", DefaultDBParams(1))
	var done sim.Time
	env.Spawn("u", func(p *sim.Proc) {
		if hit := readPage(g, p, page(1)); hit {
			t.Error("no cache: read must not hit")
		}
		done = env.Now()
	})
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	// 1 ms controller + 15 ms disk + 0.4 ms transfer = 16.4 ms.
	if done != 16400*time.Microsecond {
		t.Fatalf("read finished at %v, want 16.4ms", done)
	}
}

func TestLogDiskWriteTiming(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	g := NewGroup(env, "log", DefaultLogParams())
	var done sim.Time
	env.Spawn("u", func(p *sim.Proc) {
		writePage(g, p, page(1))
		done = env.Now()
	})
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	// 1 ms controller + 5 ms disk + 0.4 ms transfer = 6.4 ms.
	if done != 6400*time.Microsecond {
		t.Fatalf("log write finished at %v, want 6.4ms", done)
	}
}

func TestVolatileCacheReadHit(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	params := DefaultDBParams(1)
	params.Cache = &CacheParams{SizePages: 10, Volatile: true}
	g := NewGroup(env, "db", params)
	var first, second sim.Time
	env.Spawn("u", func(p *sim.Proc) {
		readPage(g, p, page(1))
		first = env.Now()
		readPage(g, p, page(1))
		second = env.Now() - first
	})
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if first != 16400*time.Microsecond {
		t.Fatalf("cold read %v, want 16.4ms", first)
	}
	// Cache hit: 1 ms controller + 0.4 ms transfer = 1.4 ms.
	if second != 1400*time.Microsecond {
		t.Fatalf("cache hit %v, want 1.4ms", second)
	}
	if g.ReadHitRatio() != 0.5 {
		t.Fatalf("hit ratio %v, want 0.5", g.ReadHitRatio())
	}
}

func TestVolatileCacheWriteThrough(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	params := DefaultDBParams(1)
	params.Cache = &CacheParams{SizePages: 10, Volatile: true}
	g := NewGroup(env, "db", params)
	var wdur, rdur sim.Time
	env.Spawn("u", func(p *sim.Proc) {
		start := env.Now()
		if absorbed := writePage(g, p, page(1)); absorbed {
			t.Error("volatile cache must not absorb writes")
		}
		wdur = env.Now() - start
		start = env.Now()
		readPage(g, p, page(1)) // written page is cached readable
		rdur = env.Now() - start
	})
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if wdur != 16400*time.Microsecond {
		t.Fatalf("write-through %v, want 16.4ms", wdur)
	}
	if rdur != 1400*time.Microsecond {
		t.Fatalf("read after write %v, want 1.4ms cache hit", rdur)
	}
}

func TestNonVolatileCacheAbsorbsWrites(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	params := DefaultDBParams(1)
	params.Cache = &CacheParams{SizePages: 10}
	g := NewGroup(env, "db", params)
	var wdur sim.Time
	env.Spawn("u", func(p *sim.Proc) {
		start := env.Now()
		if absorbed := writePage(g, p, page(1)); !absorbed {
			t.Error("non-volatile cache must absorb writes")
		}
		wdur = env.Now() - start
	})
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if wdur != 1400*time.Microsecond {
		t.Fatalf("absorbed write %v, want 1.4ms", wdur)
	}
}

func TestNonVolatileCacheDestagesOnEviction(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	params := DefaultDBParams(2)
	params.Cache = &CacheParams{SizePages: 2}
	g := NewGroup(env, "db", params)
	env.Spawn("u", func(p *sim.Proc) {
		writePage(g, p, page(1)) // dirty
		writePage(g, p, page(2)) // dirty
		writePage(g, p, page(3)) // evicts page 1 -> background destage
	})
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if g.Destages() != 1 {
		t.Fatalf("destages %d, want 1", g.Destages())
	}
	if g.Cache().Peek(page(1)) != nil {
		t.Fatal("evicted page still cached")
	}
}

func TestRewriteCoalescesDirtyState(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	params := DefaultDBParams(1)
	params.Cache = &CacheParams{SizePages: 4}
	g := NewGroup(env, "db", params)
	env.Spawn("u", func(p *sim.Proc) {
		writePage(g, p, page(1))
		writePage(g, p, page(1)) // re-dirty, no extra destage scheduling
	})
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if g.Destages() != 0 {
		t.Fatalf("destages %d, want 0 (lazy destage on eviction only)", g.Destages())
	}
	if f := g.Cache().Peek(page(1)); f == nil || !f.Dirty {
		t.Fatal("page must be dirty in cache")
	}
}

func TestDiskQueueing(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	g := NewGroup(env, "db", DefaultDBParams(1))
	var last sim.Time
	for i := 0; i < 3; i++ {
		i := i
		env.Spawn("u", func(p *sim.Proc) {
			readPage(g, p, page(int32(i)))
			last = env.Now()
		})
	}
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	// Controller (1 server) pipelines with the single disk: three
	// serial 15 ms disk services dominate.
	if last < 45*time.Millisecond {
		t.Fatalf("3 reads on one disk finished at %v, want >= 45ms", last)
	}
	if u := g.DiskUtilization(); u < 0.8 {
		t.Fatalf("disk utilization %v", u)
	}
	if g.Reads() != 3 {
		t.Fatalf("reads %d", g.Reads())
	}
}

func TestResetStats(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	g := NewGroup(env, "db", DefaultDBParams(1))
	env.Spawn("u", func(p *sim.Proc) {
		readPage(g, p, page(1))
		g.ResetStats()
	})
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if g.Reads() != 0 || g.Writes() != 0 {
		t.Fatal("counters must reset")
	}
}

func TestStallForDelaysRequests(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	g := NewGroup(env, "db", DefaultDBParams(1))
	var done sim.Time
	env.Spawn("u", func(p *sim.Proc) {
		g.StallFor(10 * time.Millisecond)
		readPage(g, p, page(1))
		done = env.Now()
	})
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	// 10 ms stall + 16.4 ms plain disk read.
	if done != 26400*time.Microsecond {
		t.Fatalf("stalled read finished at %v, want 26.4ms", done)
	}
}

// TestStallDefersCacheLookup: a read asked for during a stall is
// counted and looks the cache up when the stall clears, not when it is
// asked for, so it hits a page that an earlier miss inserted meanwhile.
func TestStallDefersCacheLookup(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	params := DefaultDBParams(1)
	params.Cache = &CacheParams{SizePages: 4, Volatile: true}
	g := NewGroup(env, "db", params)
	var hit bool
	var done sim.Time
	var readsAsked int64
	g.Access(sim.Continuation{}, page(1), false, nil) // miss: cached at 16.4 ms
	env.After(time.Millisecond, func() { g.StallFor(30 * time.Millisecond) })
	env.After(2*time.Millisecond, func() {
		g.Access(sim.Continuation{}, page(1), false, func(cached bool) { hit, done = cached, env.Now() })
		readsAsked = g.Reads()
	})
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if readsAsked != 1 || g.Reads() != 2 {
		t.Fatalf("reads %d when the stalled read was asked for, %d at the end; want 1 and 2", readsAsked, g.Reads())
	}
	// Issued at 31 ms: 1 ms controller + 0.4 ms transfer, no disk.
	if !hit || done != 32400*time.Microsecond {
		t.Fatalf("stalled read: hit %v at %v, want a hit at 32.4ms", hit, done)
	}
}

func TestStallForExtendsNotShortens(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	g := NewGroup(env, "db", DefaultDBParams(1))
	var done sim.Time
	env.Spawn("u", func(p *sim.Proc) {
		g.StallFor(10 * time.Millisecond)
		g.StallFor(time.Millisecond) // must not shorten the window
		readPage(g, p, page(1))
		done = env.Now()
	})
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if done != 26400*time.Microsecond {
		t.Fatalf("stalled read finished at %v, want 26.4ms", done)
	}
}

func TestGroupDefaultsClampServers(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	g := NewGroup(env, "db", Params{DiskTime: time.Millisecond, ControllerTime: time.Millisecond})
	env.Spawn("u", func(p *sim.Proc) { readPage(g, p, page(1)) })
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
}
