package sim

import (
	"testing"
	"time"
)

func TestWaitAdvancesClock(t *testing.T) {
	env := NewEnv()
	var at Time
	env.Spawn("w", func(p *Proc) {
		p.Wait(10 * time.Millisecond)
		at = env.Now()
	})
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if at != 10*time.Millisecond {
		t.Fatalf("woke at %v, want 10ms", at)
	}
	env.Stop()
}

func TestEventOrderingIsFIFOAtSameInstant(t *testing.T) {
	env := NewEnv()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		env.Spawn("p", func(p *Proc) {
			p.Wait(time.Millisecond)
			order = append(order, i)
		})
	}
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order %v not FIFO", order)
		}
	}
	env.Stop()
}

func TestRunStopsAtHorizon(t *testing.T) {
	env := NewEnv()
	fired := false
	env.SpawnAfter(2*time.Second, "late", func(p *Proc) { fired = true })
	if err := env.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if env.Now() != time.Second {
		t.Fatalf("clock %v, want 1s", env.Now())
	}
	env.Stop()
}

func TestAfterCallback(t *testing.T) {
	env := NewEnv()
	var at Time
	env.After(5*time.Millisecond, func() { at = env.Now() })
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if at != 5*time.Millisecond {
		t.Fatalf("callback at %v", at)
	}
	env.Stop()
}

func TestParkUnpark(t *testing.T) {
	env := NewEnv()
	var woken Time
	sleeper := env.Spawn("sleeper", func(p *Proc) {
		p.Park()
		woken = env.Now()
	})
	env.Spawn("waker", func(p *Proc) {
		p.Wait(7 * time.Millisecond)
		sleeper.Unpark()
	})
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if woken != 7*time.Millisecond {
		t.Fatalf("woken at %v, want 7ms", woken)
	}
	env.Stop()
}

func TestStaleWakeIsDropped(t *testing.T) {
	env := NewEnv()
	var first, second Time
	sleeper := env.Spawn("sleeper", func(p *Proc) {
		p.Park()
		first = env.Now()
		// A stale unpark scheduled for the first park must not cut
		// this Wait short.
		p.Wait(20 * time.Millisecond)
		second = env.Now()
	})
	env.Spawn("waker", func(p *Proc) {
		p.Wait(time.Millisecond)
		sleeper.Unpark()
		sleeper.Unpark() // duplicate wake, becomes stale
	})
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if first != time.Millisecond {
		t.Fatalf("first wake at %v", first)
	}
	if second != 21*time.Millisecond {
		t.Fatalf("wait ended at %v, want 21ms", second)
	}
	env.Stop()
}

func TestJoinAndFork(t *testing.T) {
	env := NewEnv()
	var joined, forked Time
	env.Spawn("parent", func(p *Proc) {
		child := env.Spawn("child", func(c *Proc) { c.Wait(3 * time.Millisecond) })
		p.Join(child)
		joined = env.Now()
		p.Fork("writes",
			func(c *Proc) { c.Wait(5 * time.Millisecond) },
			func(c *Proc) { c.Wait(9 * time.Millisecond) },
			func(c *Proc) { c.Wait(2 * time.Millisecond) },
		)
		forked = env.Now()
	})
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if joined != 3*time.Millisecond {
		t.Fatalf("join at %v", joined)
	}
	if forked != 12*time.Millisecond {
		t.Fatalf("fork done at %v, want 12ms (3+max(5,9,2))", forked)
	}
	env.Stop()
}

func TestJoinFinishedChildReturnsImmediately(t *testing.T) {
	env := NewEnv()
	var at Time
	env.Spawn("parent", func(p *Proc) {
		child := env.Spawn("child", func(c *Proc) {})
		p.Wait(time.Millisecond) // let the child finish first
		p.Join(child)
		at = env.Now()
	})
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if at != time.Millisecond {
		t.Fatalf("join returned at %v", at)
	}
	env.Stop()
}

// TestStaleWakesAcrossWorkerReuse checks that wake events still queued
// for a finished process are dropped even when the next process runs on
// the same pooled worker: the new process starts exactly at its
// scheduled time and is not woken early by the old one's events.
func TestStaleWakesAcrossWorkerReuse(t *testing.T) {
	env := NewEnv()
	var (
		wa, wb      *worker
		cont        Continuation
		chainRan    bool
		start, stop Time
	)
	a := env.Spawn("a", func(p *Proc) {
		wa = p.w
		cont = p.Continuation()
		p.Park()
		// Scheduled at a's final generation: a recycled Proc record
		// would match it and start b at 4ms.
		p.UnparkAfter(3 * time.Millisecond)
	})
	env.At(time.Millisecond, func() {
		a.Unpark()                                                       // wakes a, which finishes
		a.Unpark()                                                       // stale at 1ms
		a.UnparkAfter(4 * time.Millisecond)                              // stale at 5ms
		cont.ResumeAfter(2*time.Millisecond, func() { chainRan = true }) // stale resume at 3ms
		env.After(0, func() {
			if !a.Done() {
				t.Error("a not finished before b is spawned")
			}
			env.SpawnAfter(5*time.Millisecond, "b", func(p *Proc) {
				wb = p.w
				start = env.Now()
				p.Wait(10 * time.Millisecond)
				stop = env.Now()
			})
		})
	})
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if wa == nil || wa != wb {
		t.Fatalf("b did not reuse a's worker (%p, %p)", wa, wb)
	}
	if !chainRan {
		t.Fatal("the stale continuation's callback did not run")
	}
	if start != 6*time.Millisecond || stop != 16*time.Millisecond {
		t.Fatalf("b ran %v..%v, want 6ms..16ms", start, stop)
	}
	env.Stop()
}

// TestProcPanicSurfacesAsError checks that a process panic reaches Run
// as an error naming the process, and that the panicking process's
// worker then runs a later process to completion.
func TestProcPanicSurfacesAsError(t *testing.T) {
	env := NewEnv()
	var wx *worker
	env.Spawn("x", func(p *Proc) {
		wx = p.w
		panic("kaput")
	})
	err := env.RunUntilIdle()
	if err == nil || err.Error() != `sim: process "x": kaput` {
		t.Fatalf("err = %v, want the panic of process x", err)
	}
	finished := false
	y := env.Spawn("y", func(p *Proc) {
		p.Wait(time.Millisecond)
		finished = true
	})
	if y.w != wx {
		t.Fatal("y did not reuse x's worker")
	}
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if !finished || env.Now() != time.Millisecond {
		t.Fatalf("y finished=%v at %v, want true at 1ms", finished, env.Now())
	}
	env.Stop()
}

func TestStopUnwindsParkedProcesses(t *testing.T) {
	env := NewEnv()
	for i := 0; i < 10; i++ {
		env.Spawn("stuck", func(p *Proc) { p.Park() })
	}
	if err := env.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	env.Stop()
	// All processes must have unwound; live set is drained by Stop.
	if len(env.live) != 0 {
		t.Fatalf("%d processes still live after Stop", len(env.live))
	}
}

func TestResourceSingleServerSerializes(t *testing.T) {
	env := NewEnv()
	r := NewResource(env, "disk", 1)
	var ends []Time
	for i := 0; i < 3; i++ {
		env.Spawn("u", func(p *Proc) {
			r.Use(p, 10*time.Millisecond)
			ends = append(ends, env.Now())
		})
	}
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	want := []Time{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	for i, w := range want {
		if ends[i] != w {
			t.Fatalf("ends=%v want %v", ends, want)
		}
	}
	if got := r.Utilization(); got < 0.99 || got > 1.01 {
		t.Fatalf("utilization %v, want ~1", got)
	}
	env.Stop()
}

func TestResourceMultiServerParallel(t *testing.T) {
	env := NewEnv()
	r := NewResource(env, "cpu", 2)
	var ends []Time
	for i := 0; i < 4; i++ {
		env.Spawn("u", func(p *Proc) {
			r.Use(p, 10*time.Millisecond)
			ends = append(ends, env.Now())
		})
	}
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	want := []Time{10 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond, 20 * time.Millisecond}
	for i, w := range want {
		if ends[i] != w {
			t.Fatalf("ends=%v want %v", ends, want)
		}
	}
	env.Stop()
}

func TestResourceFCFSAndWaitStats(t *testing.T) {
	env := NewEnv()
	r := NewResource(env, "r", 1)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		env.SpawnAfter(Time(i)*time.Millisecond, "u", func(p *Proc) {
			r.Use(p, 10*time.Millisecond)
			order = append(order, i)
		})
	}
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("service order %v not FCFS", order)
		}
	}
	if r.Requests() != 3 {
		t.Fatalf("requests %d", r.Requests())
	}
	// Waits: 0, 9ms, 18ms => mean 9ms.
	if got := r.MeanWait(); got != 9*time.Millisecond {
		t.Fatalf("mean wait %v, want 9ms", got)
	}
	if got := r.QueuedShare(); got < 0.66 || got > 0.67 {
		t.Fatalf("queued share %v, want 2/3", got)
	}
	env.Stop()
}

func TestResourceResetStats(t *testing.T) {
	env := NewEnv()
	r := NewResource(env, "r", 1)
	env.Spawn("u", func(p *Proc) {
		r.Use(p, 10*time.Millisecond)
		r.ResetStats()
		p.Wait(10 * time.Millisecond) // idle period after reset
	})
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if got := r.Utilization(); got != 0 {
		t.Fatalf("utilization after reset %v, want 0", got)
	}
	if r.Requests() != 0 {
		t.Fatalf("requests after reset %d", r.Requests())
	}
	env.Stop()
}

func TestSemaphoreLimitsConcurrency(t *testing.T) {
	env := NewEnv()
	s := NewSemaphore(env, "mpl", 2)
	active, maxActive := 0, 0
	for i := 0; i < 6; i++ {
		env.Spawn("t", func(p *Proc) {
			s.Acquire(p)
			active++
			if active > maxActive {
				maxActive = active
			}
			p.Wait(5 * time.Millisecond)
			active--
			s.Release()
		})
	}
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if maxActive != 2 {
		t.Fatalf("max concurrency %d, want 2", maxActive)
	}
	if s.MaxQueue() != 4 {
		t.Fatalf("max queue %d, want 4", s.MaxQueue())
	}
	env.Stop()
}

func TestMailboxFIFO(t *testing.T) {
	env := NewEnv()
	m := NewMailbox(env, "m")
	var got []int
	env.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			v, ok := m.Get(p).(int)
			if !ok {
				t.Error("non-int in mailbox")
				return
			}
			got = append(got, v)
		}
	})
	env.Spawn("producer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Wait(time.Millisecond)
			m.Put(i)
		}
	})
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got %v", got)
		}
	}
	env.Stop()
}

func TestMailboxBuffersWithoutConsumer(t *testing.T) {
	env := NewEnv()
	m := NewMailbox(env, "m")
	env.Spawn("producer", func(p *Proc) {
		m.Put(1)
		m.Put(2)
	})
	env.Spawn("late", func(p *Proc) {
		p.Wait(time.Millisecond)
		if v := m.Get(p); v != 1 {
			t.Errorf("got %v want 1", v)
		}
		if v := m.Get(p); v != 2 {
			t.Errorf("got %v want 2", v)
		}
	})
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 0 {
		t.Fatalf("mailbox len %d", m.Len())
	}
	env.Stop()
}

func TestDeterminismAcrossRuns(t *testing.T) {
	trace := func() []Time {
		env := NewEnv()
		defer env.Stop()
		r := NewResource(env, "r", 2)
		var events []Time
		for i := 0; i < 20; i++ {
			i := i
			env.SpawnAfter(Time(i%7)*time.Millisecond, "p", func(p *Proc) {
				r.Use(p, Time(1+i%3)*time.Millisecond)
				events = append(events, env.Now())
			})
		}
		if err := env.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
		return events
	}
	a, b := trace(), trace()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestRandomResourceNetworkConservation drives random jobs through a
// random network of resources and checks conservation (every job
// finishes exactly once) and utilization bounds.
func TestRandomResourceNetworkConservation(t *testing.T) {
	for seed := 0; seed < 5; seed++ {
		env := NewEnv()
		resources := []*Resource{
			NewResource(env, "a", 1),
			NewResource(env, "b", 2),
			NewResource(env, "c", 3),
		}
		const jobs = 200
		finished := 0
		for i := 0; i < jobs; i++ {
			i := i
			env.SpawnAfter(Time(i%17)*time.Millisecond, "job", func(p *Proc) {
				// Visit resources in a job-dependent order with
				// job-dependent service times.
				for k := 0; k < 3; k++ {
					r := resources[(i+k*(seed+1))%len(resources)]
					r.Use(p, Time(1+(i+k)%5)*time.Millisecond)
				}
				finished++
			})
		}
		if err := env.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
		if finished != jobs {
			t.Fatalf("seed %d: %d of %d jobs finished", seed, finished, jobs)
		}
		for _, r := range resources {
			u := r.Utilization()
			if u < 0 || u > 1.0000001 {
				t.Fatalf("seed %d: resource %s utilization %v out of [0,1]", seed, r.Name(), u)
			}
			if r.Busy() != 0 {
				t.Fatalf("seed %d: resource %s still busy after idle", seed, r.Name())
			}
			if r.QueueLen() != 0 {
				t.Fatalf("seed %d: resource %s still has waiters", seed, r.Name())
			}
		}
		env.Stop()
	}
}

// TestSemaphoreConservation checks that a semaphore never admits more
// holders than tokens across random acquire/release interleavings.
func TestSemaphoreConservation(t *testing.T) {
	env := NewEnv()
	defer env.Stop()
	const tokens = 3
	s := NewSemaphore(env, "s", tokens)
	active, violations := 0, 0
	for i := 0; i < 100; i++ {
		i := i
		env.SpawnAfter(Time(i%11)*time.Millisecond, "t", func(p *Proc) {
			s.Acquire(p)
			active++
			if active > tokens {
				violations++
			}
			p.Wait(Time(1+i%7) * time.Millisecond)
			active--
			s.Release()
		})
	}
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if violations != 0 {
		t.Fatalf("%d token violations", violations)
	}
	if s.MeanWait() < 0 {
		t.Fatal("negative mean wait")
	}
}

// TestSemaphoreSetLimit exercises the dynamic admission limit: raising
// it wakes queued waiters immediately, lowering it drains conservatively
// (running holders finish; no new admissions until the count falls below
// the new limit), and the floor is clamped to 1.
func TestSemaphoreSetLimit(t *testing.T) {
	env := NewEnv()
	s := NewSemaphore(env, "mpl", 2)
	active, maxActive := 0, 0
	var order []int
	for i := 0; i < 8; i++ {
		i := i
		env.Spawn("t", func(p *Proc) {
			s.Acquire(p)
			order = append(order, i)
			active++
			if active > maxActive {
				maxActive = active
			}
			p.Wait(10 * time.Millisecond)
			active--
			s.Release()
		})
	}
	// Cut the limit to 1 mid-flight, then raise it to 4 later.
	env.After(5*time.Millisecond, func() { s.SetLimit(1) })
	env.After(25*time.Millisecond, func() { s.SetLimit(4) })
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if maxActive != 4 {
		t.Fatalf("max concurrency %d, want 4 after the raise", maxActive)
	}
	if len(order) != 8 {
		t.Fatalf("%d holders ran, want all 8", len(order))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("admission order %v not FCFS", order)
		}
	}
	if s.InUse() != 0 {
		t.Fatalf("%d still held at idle", s.InUse())
	}
	s.SetLimit(0)
	if s.Limit() != 1 {
		t.Fatalf("limit %d after SetLimit(0), want clamp to 1", s.Limit())
	}
	env.Stop()
}

// TestSemaphoreLowerLimitDrains pins the conservative-drain timing: with
// 3 holders and the limit cut to 1, releases drain the excess without
// admitting anyone until the held count reaches the new limit; from then
// on each release hands its slot to the next waiter.
func TestSemaphoreLowerLimitDrains(t *testing.T) {
	env := NewEnv()
	s := NewSemaphore(env, "mpl", 3)
	var admitted []time.Duration
	for i := 0; i < 5; i++ {
		env.Spawn("t", func(p *Proc) {
			s.Acquire(p)
			admitted = append(admitted, env.Now())
			p.Wait(10 * time.Millisecond)
			s.Release()
		})
	}
	env.After(time.Millisecond, func() { s.SetLimit(1) })
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{0, 0, 0, 10 * time.Millisecond, 20 * time.Millisecond}
	if len(admitted) != len(want) {
		t.Fatalf("%d admissions, want %d", len(admitted), len(want))
	}
	for i := range want {
		if admitted[i] != want[i] {
			t.Fatalf("admission times %v, want %v", admitted, want)
		}
	}
	env.Stop()
}
