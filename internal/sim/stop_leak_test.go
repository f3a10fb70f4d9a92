package sim

import (
	"runtime"
	"testing"
	"time"
)

// TestStopLeaksNoGoroutines is the leak regression test for Env.Stop:
// after stopping an environment whose processes are blocked in every
// way the kernel supports — plain Park, pending Wait timers, resource
// queues, semaphore admission, mailbox receives — the process goroutine
// count must return to its pre-run level. Processes that finished
// before Stop leave idle pooled workers, and one process is spawned but
// never started; Stop must retire both kinds of worker. A leak here
// would accumulate across the thousands of environments a parameter
// sweep creates.
func TestStopLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	env := NewEnv()
	r := NewResource(env, "r", 1)
	sem := NewSemaphore(env, "mpl", 1)
	m := NewMailbox(env, "m")

	// Holders pin the resource and the semaphore so later arrivals
	// stay queued when the run horizon is reached.
	env.Spawn("rholder", func(p *Proc) {
		r.Acquire(p)
		p.Park()
	})
	env.Spawn("sholder", func(p *Proc) {
		sem.Acquire(p)
		p.Park()
	})
	for i := 0; i < 4; i++ {
		env.Spawn("rwait", func(p *Proc) { r.Use(p, time.Millisecond) })
		env.Spawn("swait", func(p *Proc) { sem.Acquire(p); sem.Release() })
		env.Spawn("mwait", func(p *Proc) { m.Get(p) })
		env.Spawn("parked", func(p *Proc) { p.Park() })
		env.Spawn("sleeper", func(p *Proc) { p.Wait(time.Hour) })
		env.Spawn("finished", func(p *Proc) { p.Wait(time.Millisecond) })
	}
	started := false
	unstarted := env.SpawnAfter(time.Hour, "unstarted", func(p *Proc) { started = true })
	if err := env.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(env.idle) == 0 {
		t.Fatal("expected idle pooled workers before Stop")
	}
	env.Stop()
	if started || !unstarted.Done() {
		t.Fatalf("unstarted process: ran=%v done=%v, want false, true", started, unstarted.Done())
	}

	// Stop switches into each worker until its coroutine returns, but
	// give the runtime a moment to reap before declaring a leak.
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after Stop", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStopLeaksAtHyperscale re-checks the Stop contract at hyperscale
// entity counts: tens of thousands of live processes and pending
// calendar entries spread across buckets and the overflow tier. Stop
// must unwind every process and drop every queued event regardless of
// where the calendar's cursor, window, or overflow tier stand.
func TestStopLeaksAtHyperscale(t *testing.T) {
	if testing.Short() {
		t.Skip("hyperscale leak check is slow")
	}
	before := runtime.NumGoroutine()

	env := NewEnv()
	r := NewResource(env, "r", 2)
	const entities = 20000
	for i := 0; i < entities; i++ {
		d := Time(i%997) * time.Millisecond // spans many calendar windows
		switch i % 4 {
		case 0:
			env.Spawn("sleeper", func(p *Proc) { p.Wait(d + time.Hour) })
		case 1:
			env.Spawn("rwait", func(p *Proc) { r.Use(p, time.Second) })
		case 2:
			env.Spawn("parked", func(p *Proc) { p.Park() })
		case 3:
			env.After(d+time.Hour, func() {}) // far-future Tier-1 events
		}
	}
	if err := env.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if env.LiveCount() == 0 {
		t.Fatal("expected live processes at the horizon")
	}
	env.Stop()

	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after Stop", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
