package gem

import (
	"testing"
	"time"

	"gemsim/internal/cpusrv"
	"gemsim/internal/sim"
)

// access runs n cycles of dev for p through a CPU-held composite with
// no instruction burst, so only the device's time passes.
func access(cpu *cpusrv.CPU, p *sim.Proc, dev *cpusrv.Device, n int) {
	cpu.Hold(p.Continuation(), 0, dev, n, nil)
	p.Park()
}

func TestAccessTimes(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	g := New(env, DefaultParams())
	cpu := cpusrv.New(env, "cpu", 1, 10)
	var pageAt, entryAt sim.Time
	env.Spawn("u", func(p *sim.Proc) {
		access(cpu, p, g.Page(), 1)
		pageAt = env.Now()
		g.AccessEntryFn(p.Continuation())
		p.Park()
		entryAt = env.Now()
	})
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if pageAt != 50*time.Microsecond {
		t.Fatalf("page access finished at %v, want 50µs", pageAt)
	}
	if entryAt != 52*time.Microsecond {
		t.Fatalf("entry access finished at %v, want 52µs", entryAt)
	}
	if g.PageAccesses() != 1 || g.EntryAccesses() != 1 {
		t.Fatalf("access counts %d/%d", g.PageAccesses(), g.EntryAccesses())
	}
}

func TestSingleServerQueueing(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	g := New(env, DefaultParams())
	cpu := cpusrv.New(env, "cpu", 3, 10)
	var ends []sim.Time
	for i := 0; i < 3; i++ {
		env.Spawn("u", func(p *sim.Proc) {
			access(cpu, p, g.Page(), 1)
			ends = append(ends, env.Now())
		})
	}
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	want := []sim.Time{50 * time.Microsecond, 100 * time.Microsecond, 150 * time.Microsecond}
	for i, w := range want {
		if ends[i] != w {
			t.Fatalf("ends %v, want %v", ends, want)
		}
	}
}

func TestAccessEntriesCount(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	g := New(env, DefaultParams())
	cpu := cpusrv.New(env, "cpu", 1, 10)
	env.Spawn("u", func(p *sim.Proc) { access(cpu, p, g.Entries(), 4) })
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if g.EntryAccesses() != 4 {
		t.Fatalf("entry accesses %d, want 4", g.EntryAccesses())
	}
	if env.Now() != 8*time.Microsecond {
		t.Fatalf("clock %v, want 8µs", env.Now())
	}
}

func TestResidentFiles(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	g := New(env, DefaultParams())
	if g.Resident(1) {
		t.Fatal("file 1 should not be resident")
	}
	g.AllocateFile(1)
	if !g.Resident(1) {
		t.Fatal("file 1 should be resident")
	}
}

func TestResetStats(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	g := New(env, DefaultParams())
	cpu := cpusrv.New(env, "cpu", 1, 10)
	env.Spawn("u", func(p *sim.Proc) {
		access(cpu, p, g.Page(), 1)
		g.ResetStats()
		p.Wait(time.Millisecond)
	})
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if g.PageAccesses() != 0 {
		t.Fatalf("page accesses after reset %d", g.PageAccesses())
	}
	if u := g.Utilization(); u != 0 {
		t.Fatalf("utilization after reset %v", u)
	}
}

func TestDefaultServerFallback(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	g := New(env, Params{PageAccess: time.Microsecond, EntryAccess: time.Microsecond})
	cpu := cpusrv.New(env, "cpu", 1, 10)
	env.Spawn("u", func(p *sim.Proc) { access(cpu, p, g.Page(), 1) })
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
}
