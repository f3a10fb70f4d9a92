package sim

import (
	"testing"
	"time"
)

// TestTier1AllocFree pins the allocation-free accounting contract of
// the Tier-1 hot path: once pools are warm (event free list, resource
// queues, calendar buckets at steady capacity), a contended callback
// service cycle, a timer re-arm, and a process service cycle all
// perform zero heap allocations.
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

	tm := env.NewTimer(func() {})
	tm.Reset(time.Microsecond)
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		tm.Reset(time.Millisecond)
		tm.Stop()
		tm.Reset(time.Microsecond)
		if err := env.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("timer re-arm cycle allocates %.1f/op, want 0", n)
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
