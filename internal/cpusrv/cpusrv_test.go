package cpusrv

import (
	"testing"
	"time"

	"gemsim/internal/sim"
)

func TestExecTiming(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	c := New(env, "cpu", 1, 10) // 10 MIPS
	var done sim.Time
	env.Spawn("u", func(p *sim.Proc) {
		c.Exec(p, 5000) // 5000 instructions at 10 MIPS = 500 µs
		done = env.Now()
	})
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if done != 500*time.Microsecond {
		t.Fatalf("exec finished at %v, want 500µs", done)
	}
	if c.Instructions() != 5000 {
		t.Fatalf("instructions %v", c.Instructions())
	}
}

func TestExecZeroIsFree(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	c := New(env, "cpu", 1, 10)
	env.Spawn("u", func(p *sim.Proc) {
		c.Exec(p, 0)
		c.Exec(p, -5)
	})
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if env.Now() != 0 {
		t.Fatalf("clock advanced to %v", env.Now())
	}
}

func TestMultiprocessorParallelism(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	c := New(env, "cpu", 4, 10)
	var last sim.Time
	for i := 0; i < 4; i++ {
		env.Spawn("u", func(p *sim.Proc) {
			c.Exec(p, 10000)
			last = env.Now()
		})
	}
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if last != time.Millisecond {
		t.Fatalf("4 parallel 1ms bursts finished at %v, want 1ms", last)
	}
}

func TestAcquireHoldKeepsCPUBusy(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	c := New(env, "cpu", 1, 10)
	var count int64
	var spanStart sim.Time
	var spanN int
	dev := &Device{
		Res:   sim.NewResource(env, "dev", 1),
		Svc:   450 * time.Microsecond,
		Count: &count,
		Span:  func(_ int64, start sim.Time, n int) { spanStart, spanN = start, n },
	}
	var heldUntil, blockedUntil sim.Time
	env.Spawn("holder", func(p *sim.Proc) {
		c.Hold(p.Continuation(), 1000, dev, 2, nil) // 100 µs + 2 x 450 µs
		p.Park()
		heldUntil = env.Now()
	})
	env.Spawn("second", func(p *sim.Proc) {
		c.Exec(p, 1000)
		blockedUntil = env.Now()
	})
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if heldUntil != time.Millisecond {
		t.Fatalf("holder resumed at %v, want 1ms", heldUntil)
	}
	// Second must wait for the holder's full 1 ms occupancy then run
	// its own 100 µs.
	if blockedUntil != 1100*time.Microsecond {
		t.Fatalf("second finished at %v, want 1.1ms", blockedUntil)
	}
	if u := c.Utilization(); u < 0.99 {
		t.Fatalf("utilization %v, want ~1 (synchronous hold counts as busy)", u)
	}
	if count != 2 || spanN != 2 || spanStart != 100*time.Microsecond {
		t.Fatalf("count %d, span n=%d from %v; want 2 cycles from 100µs", count, spanN, spanStart)
	}
	if c.Instructions() != 2000 {
		t.Fatalf("instructions %v, want 2000", c.Instructions())
	}
}

// TestHoldCallbackTier runs the composite with no process: done fires
// in the final cycle's completion slot, after the processor is free.
func TestHoldCallbackTier(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	c := New(env, "cpu", 1, 10)
	dev := &Device{Res: sim.NewResource(env, "dev", 1), Svc: 50 * time.Microsecond}
	var doneAt sim.Time
	c.Hold(sim.Continuation{}, 0, dev, 1, func() {
		doneAt = env.Now()
		c.Hold(sim.Continuation{}, 1000, dev, 1, nil) // the processor is free again
	})
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if doneAt != 50*time.Microsecond || env.Now() != 200*time.Microsecond {
		t.Fatalf("done at %v, idle at %v; want 50µs, 200µs", doneAt, env.Now())
	}
}

func TestServiceTime(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	c := New(env, "cpu", 1, 10)
	if got := c.ServiceTime(250000); got != 25*time.Millisecond {
		t.Fatalf("250k instructions at 10 MIPS = %v, want 25ms", got)
	}
}

func TestResetStats(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	c := New(env, "cpu", 1, 10)
	env.Spawn("u", func(p *sim.Proc) {
		c.Exec(p, 10000)
		c.ResetStats()
		p.Wait(time.Millisecond)
	})
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if c.Instructions() != 0 || c.Utilization() != 0 {
		t.Fatal("reset failed")
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(env, "cpu", 0, 10)
}
