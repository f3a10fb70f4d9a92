package node

import (
	"runtime"
	"testing"
	"time"

	"gemsim/internal/model"
	"gemsim/internal/sim"
)

// TestGateLimitsConcurrency checks that processes taking slots with
// wait never exceed the limit and that the rest queue in the ring.
func TestGateLimitsConcurrency(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	g := newGate(env, "mpl", 2, nil)
	active, maxActive := 0, 0
	for i := 0; i < 6; i++ {
		env.Spawn("t", func(p *sim.Proc) {
			g.wait(p)
			active++
			maxActive = max(maxActive, active)
			p.Wait(5 * time.Millisecond)
			active--
			g.release()
		})
	}
	queued := -1
	env.After(time.Millisecond, func() { queued = g.queued() })
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if maxActive != 2 {
		t.Fatalf("max concurrency %d, want 2", maxActive)
	}
	if queued != 4 {
		t.Fatalf("%d queued while two held, want 4", queued)
	}
}

// TestGateConservation checks that the gate never admits more holders
// than its limit across random interleavings of fresh work and parked
// processes.
func TestGateConservation(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	const limit = 3
	var g *gate
	active, violations, ran := 0, 0, 0
	hold := func(p *sim.Proc, d time.Duration) {
		active++
		ran++
		if active > limit {
			violations++
		}
		p.Wait(d)
		active--
		g.release()
	}
	g = newGate(env, "s", limit, func(it gateItem) {
		env.Spawn("fresh", func(p *sim.Proc) { hold(p, time.Duration(1+it.spec.Type%7)*time.Millisecond) })
	})
	for i := 0; i < 100; i++ {
		i := i
		if i%2 == 0 {
			env.After(time.Duration(i%11)*time.Millisecond, func() { g.admit(model.Txn{Type: i}) })
			continue
		}
		env.Spawn("parked", func(p *sim.Proc) {
			p.Wait(time.Duration(i%11) * time.Millisecond)
			g.wait(p)
			hold(p, time.Duration(1+i%7)*time.Millisecond)
		})
	}
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if violations != 0 || ran != 100 {
		t.Fatalf("%d limit violations, %d of 100 ran", violations, ran)
	}
	if c := g.counters(); c.Requests != 100 || c.WaitSum <= 0 || c.QSeconds <= 0 {
		t.Fatalf("counters %+v: want 100 requests and positive waiting", c)
	}
}

// TestGateSetLimit exercises the dynamic limit on fresh work: raising
// it admits queued items at once, lowering it drains conservatively
// (holders finish; nothing is admitted until the count falls below
// the new limit), admission stays FIFO, and the floor is clamped to 1.
func TestGateSetLimit(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	var g *gate
	var order []int
	var at []time.Duration
	active, maxActive := 0, 0
	g = newGate(env, "mpl", 2, func(it gateItem) {
		env.Spawn("t", func(p *sim.Proc) {
			order = append(order, it.spec.Type)
			at = append(at, env.Now())
			active++
			maxActive = max(maxActive, active)
			p.Wait(10 * time.Millisecond)
			active--
			g.release()
		})
	})
	for i := 0; i < 8; i++ {
		g.admit(model.Txn{Type: i})
	}
	// Cut the limit to 1 mid-flight, then raise it to 4 later.
	env.After(5*time.Millisecond, func() { g.setLimit(1) })
	env.After(25*time.Millisecond, func() { g.setLimit(4) })
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
	// Two at 0; the cut holds admissions back until both release at
	// 10 ms, then one at a time; the raise at 25 ms admits three more
	// in its own instant.
	want := []time.Duration{0, 0, 10, 20, 25, 25, 25, 30}
	for i, w := range want {
		if at[i] != w*time.Millisecond {
			t.Fatalf("admission times %v, want %v ms", at, want)
		}
	}
	if g.held != 0 {
		t.Fatalf("%d still held at idle", g.held)
	}
	g.setLimit(0)
	if g.limit != 1 {
		t.Fatalf("limit %d after setLimit(0), want clamp to 1", g.limit)
	}
}

// TestGateLowerLimitDrains pins the conservative-drain timing: with 3
// holders and the limit cut to 1, releases drain the excess without
// admitting anyone until the held count reaches the new limit; from
// then on each release hands its slot to the next item.
func TestGateLowerLimitDrains(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	var g *gate
	var admitted []time.Duration
	g = newGate(env, "mpl", 3, func(gateItem) {
		env.Spawn("t", func(p *sim.Proc) {
			admitted = append(admitted, env.Now())
			p.Wait(10 * time.Millisecond)
			g.release()
		})
	})
	for i := 0; i < 5; i++ {
		g.admit(model.Txn{Type: i})
	}
	env.After(time.Millisecond, func() { g.setLimit(1) })
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
}

// TestGateAccountingAllocFree holds the gate's station accounting to
// the kernel's rule for operational-law hooks: integrating the queue
// length and taking a counter snapshot allocate nothing.
func TestGateAccountingAllocFree(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	g := newGate(env, "s", 2, nil)
	r := sim.NewResource(env, "r", 2)
	const workers = 8
	for w := 0; w < workers; w++ {
		env.Spawn("w", func(p *sim.Proc) {
			for i := 0; i < 50; i++ {
				g.wait(p)
				r.Use(p, time.Microsecond)
				g.release()
			}
		})
	}
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, g.qAccumulate); n != 0 {
		t.Errorf("gate.qAccumulate allocates %.1f objects per call, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { _ = g.counters() }); n != 0 {
		t.Errorf("gate.counters allocates %.1f objects per call, want 0", n)
	}
	if c := g.counters(); c.Requests != workers*50 {
		t.Errorf("Requests = %d, want %d", c.Requests, workers*50)
	}
}

// TestStopLeaksNoGateWaiters checks that Env.Stop unwinds processes
// parked in a gate's ring, so no goroutine outlives the run.
func TestStopLeaksNoGateWaiters(t *testing.T) {
	before := runtime.NumGoroutine()
	env := sim.NewEnv()
	g := newGate(env, "mpl", 1, nil)
	// The holder pins the only slot so later processes stay parked in
	// the ring when the run horizon is reached.
	env.Spawn("holder", func(p *sim.Proc) {
		g.wait(p)
		p.Park()
	})
	for i := 0; i < 4; i++ {
		env.Spawn("waiter", func(p *sim.Proc) { g.wait(p); g.release() })
	}
	if err := env.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if g.queued() != 4 {
		t.Fatalf("%d parked in the ring, want 4", g.queued())
	}
	env.Stop()
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
