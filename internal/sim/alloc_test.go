package sim

import (
	"testing"
	"time"
)

// TestTier1AllocFree pins the allocation-free accounting contract of
// the Tier-1 hot path: once pools are warm (event free list, resource
// queues, calendar buckets at steady capacity), a contended callback
// service cycle performs zero heap allocations.
func TestTier1AllocFree(t *testing.T) {
	env := NewEnv()
	defer env.Stop()
	r := NewResource(env, "r", 1)

	served := 0
	done := func() { served++ }
	cycle := func() {
		// Two requests on a one-server station: the second queues, so
		// each run exercises grant, queue, hand-off, and completion.
		r.Request(time.Microsecond, done)
		r.Request(time.Microsecond, done)
		if err := env.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // warm the pools
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Fatalf("contended Request cycle allocates %.1f/op, want 0", n)
	}

}

// TestTier2Allocs pins the allocation contract of the process tier:
// once the worker pool is warm, a spawn -> Wait -> finish cycle
// allocates only the Proc record, and parking and resuming a live
// process allocates nothing.
func TestTier2Allocs(t *testing.T) {
	env := NewEnv()
	defer env.Stop()
	body := func(p *Proc) { p.Wait(time.Microsecond) }
	spawn := func() {
		env.Spawn("s", body)
		if err := env.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
	}
	spawn() // warm the worker pool
	if n := testing.AllocsPerRun(200, spawn); n > 1 {
		t.Fatalf("spawn cycle allocates %.1f/op, want at most 1 (the Proc record)", n)
	}

	parked := env.Spawn("parked", func(p *Proc) {
		for {
			p.Park()
		}
	})
	resume := func() {
		parked.Unpark()
		if err := env.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
	}
	resume()
	if n := testing.AllocsPerRun(200, resume); n != 0 {
		t.Fatalf("park/resume cycle allocates %.1f/op, want 0", n)
	}
}

// TestFreeListReuse checks that a FreeList hands records back LIFO and
// that a warm get/put cycle allocates nothing.
func TestFreeListReuse(t *testing.T) {
	var l FreeList[int]
	if l.Get() != nil {
		t.Fatal("empty list returned a record")
	}
	a, b := new(int), new(int)
	l.Put(a)
	l.Put(b)
	if l.Get() != b || l.Get() != a || l.Get() != nil {
		t.Fatal("records not returned LIFO")
	}
	l.Put(a)
	if n := testing.AllocsPerRun(100, func() { l.Put(l.Get()) }); n != 0 {
		t.Fatalf("warm get/put allocates %.1f/op, want 0", n)
	}
}

// TestSpawnAndParkCounts pins the kernel's process counters: every
// Spawn counts once, and every hand-off back to the kernel — Wait,
// Park, a blocking Resource primitive — counts one park.
func TestSpawnAndParkCounts(t *testing.T) {
	env := NewEnv()
	defer env.Stop()
	r := NewResource(env, "r", 1)
	var sleeper *Proc
	// The waiter parks three times, the sleeper once; "done" never.
	env.Spawn("waiter", func(p *Proc) {
		p.Wait(time.Millisecond)
		r.Use(p, time.Millisecond)
		sleeper.Unpark()
		p.Wait(time.Millisecond)
	})
	sleeper = env.Spawn("sleeper", func(p *Proc) { p.Park() })
	env.Spawn("done", func(p *Proc) {})
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if env.Spawns() != 3 || env.Parks() != 4 {
		t.Fatalf("spawns %d parks %d, want 3 and 4", env.Spawns(), env.Parks())
	}
}

// TestKernelCountsByKind pins the per-kind dispatch counters: two
// requests on a one-server station dispatch two completions and one
// hand-off (the queued request served at the first release), and a
// plain After one general event.
func TestKernelCountsByKind(t *testing.T) {
	env := NewEnv()
	defer env.Stop()
	r := NewResource(env, "r", 1)
	base := env.Counts()
	env.After(0, func() {})
	r.Request(time.Microsecond, nil)
	r.Request(time.Microsecond, nil)
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	k := env.Counts().Sub(base)
	if k.Fn != 1 || k.Complete != 2 || k.Handoff != 1 {
		t.Fatalf("dispatches fn %d complete %d handoff %d, want 1, 2 and 1", k.Fn, k.Complete, k.Handoff)
	}
	if k.Rebuilds == 0 {
		t.Fatal("the calendar's rebuilds are not counted")
	}
}

// TestDetachedContinuationNeverResumes checks that a detached
// continuation keeps its process's trace id but that a chain
// completing through it leaves the process parked.
func TestDetachedContinuationNeverResumes(t *testing.T) {
	env := NewEnv()
	defer env.Stop()
	r := NewResource(env, "r", 1)
	resumed := time.Duration(-1)
	env.Spawn("p", func(p *Proc) {
		p.SetTraceID(7)
		c := p.Continuation()
		d := c.Detach()
		if d.TraceID() != 7 {
			t.Errorf("detached continuation traces as %d, want 7", d.TraceID())
		}
		r.RequestResume(d, time.Millisecond, nil)
		r.RequestResume(c, time.Millisecond, nil)
		p.Park()
		resumed = env.Now()
	})
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if resumed != 2*time.Millisecond {
		t.Fatalf("resumed at %v, want 2ms (by the second completion only)", resumed)
	}
}
