package netsim

import (
	"testing"
	"time"

	"gemsim/internal/cpusrv"
	"gemsim/internal/gem"
	"gemsim/internal/rng"
	"gemsim/internal/sim"
)

// harness wires two single-CPU nodes with recording handlers.
func harness(t *testing.T, params Params) (*sim.Env, *Network, []*cpusrv.CPU, *[]string) {
	t.Helper()
	env := sim.NewEnv()
	n := New(env, params, 2)
	cpus := []*cpusrv.CPU{
		cpusrv.New(env, "cpu0", 1, 10),
		cpusrv.New(env, "cpu1", 1, 10),
	}
	var delivered []string
	for i := 0; i < 2; i++ {
		i := i
		n.Register(i, cpus[i], func(from int, msg any) {
			s, _ := msg.(string)
			delivered = append(delivered, s)
			_ = from
			_ = i
		})
	}
	return env, n, cpus, &delivered
}

func TestShortMessageTiming(t *testing.T) {
	env, n, _, delivered := harness(t, DefaultParams())
	defer env.Stop()
	var done sim.Time
	env.Spawn("sender", func(p *sim.Proc) {
		n.Send(p, 0, 1, Short, "hello")
	})
	env.After(10*time.Second, func() {}) // keep calendar alive
	if err := env.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(*delivered) != 1 || (*delivered)[0] != "hello" {
		t.Fatalf("delivered %v", *delivered)
	}
	// Timing: send CPU 5000 instr @10 MIPS = 500 µs; transit 100 B /
	// 10 MB/s = 10 µs; recv CPU 500 µs; handler runs at 1010 µs + recv.
	done = env.Now()
	_ = done
	if n.ShortSent() != 1 || n.LongSent() != 0 {
		t.Fatalf("counts %d/%d", n.ShortSent(), n.LongSent())
	}
}

func TestMessageDeliveryDelay(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	n := New(env, DefaultParams(), 2)
	cpu0 := cpusrv.New(env, "cpu0", 1, 10)
	cpu1 := cpusrv.New(env, "cpu1", 1, 10)
	var handlerAt sim.Time
	n.Register(0, cpu0, func(from int, msg any) {})
	n.Register(1, cpu1, func(from int, msg any) { handlerAt = env.Now() })
	env.Spawn("sender", func(p *sim.Proc) { n.Send(p, 0, 1, Short, 1) })
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	// 500 µs send + 10 µs transit + 500 µs receive = 1010 µs.
	want := 1010 * time.Microsecond
	if handlerAt != want {
		t.Fatalf("handler at %v, want %v", handlerAt, want)
	}
}

func TestLongMessageDelay(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	n := New(env, DefaultParams(), 2)
	cpu0 := cpusrv.New(env, "cpu0", 1, 10)
	cpu1 := cpusrv.New(env, "cpu1", 1, 10)
	var handlerAt sim.Time
	n.Register(0, cpu0, func(from int, msg any) {})
	n.Register(1, cpu1, func(from int, msg any) { handlerAt = env.Now() })
	env.Spawn("sender", func(p *sim.Proc) { n.Send(p, 0, 1, Long, 1) })
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	// 800 µs send + 409.6 µs transit + 800 µs receive = 2009.6 µs.
	want := 800*time.Microsecond + time.Duration(4096.0/10e6*1e9) + 800*time.Microsecond
	if diff := handlerAt - want; diff < -time.Microsecond || diff > time.Microsecond {
		t.Fatalf("handler at %v, want ~%v", handlerAt, want)
	}
	if n.LongSent() != 1 {
		t.Fatalf("long count %d", n.LongSent())
	}
}

func TestSenderChargedInline(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	n := New(env, DefaultParams(), 2)
	cpu0 := cpusrv.New(env, "cpu0", 1, 10)
	cpu1 := cpusrv.New(env, "cpu1", 1, 10)
	n.Register(0, cpu0, func(from int, msg any) {})
	n.Register(1, cpu1, func(from int, msg any) {})
	var sendDone sim.Time
	env.Spawn("sender", func(p *sim.Proc) {
		n.Send(p, 0, 1, Short, 1)
		sendDone = env.Now()
	})
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if sendDone != 500*time.Microsecond {
		t.Fatalf("send returned at %v, want 500µs (send overhead only)", sendDone)
	}
}

func TestWireLatencyAdds(t *testing.T) {
	params := DefaultParams()
	params.WireLatency = 3 * time.Millisecond
	env := sim.NewEnv()
	defer env.Stop()
	n := New(env, params, 2)
	cpu0 := cpusrv.New(env, "cpu0", 1, 10)
	cpu1 := cpusrv.New(env, "cpu1", 1, 10)
	var handlerAt sim.Time
	n.Register(0, cpu0, func(from int, msg any) {})
	n.Register(1, cpu1, func(from int, msg any) { handlerAt = env.Now() })
	env.Spawn("sender", func(p *sim.Proc) { n.Send(p, 0, 1, Short, 1) })
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if handlerAt != 4010*time.Microsecond {
		t.Fatalf("handler at %v, want 4010µs with wire latency", handlerAt)
	}
}

func TestResetStats(t *testing.T) {
	env, n, _, _ := harness(t, DefaultParams())
	defer env.Stop()
	env.Spawn("sender", func(p *sim.Proc) {
		n.Send(p, 0, 1, Short, "x")
		n.Send(p, 0, 1, Long, "y")
	})
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	n.ResetStats()
	if n.ShortSent() != 0 || n.LongSent() != 0 {
		t.Fatal("reset failed")
	}
}

func TestClassString(t *testing.T) {
	if Short.String() != "short" || Long.String() != "long" {
		t.Fatal("class strings")
	}
}

func TestMessageLossDropsUnreliableOnly(t *testing.T) {
	params := DefaultParams()
	params.LossProb = 1 // Float64() < 1 always: every unreliable message is lost
	env, n, _, delivered := harness(t, params)
	defer env.Stop()
	n.SetLossSource(rng.New(1).Split("loss"))
	env.Spawn("sender", func(p *sim.Proc) {
		n.Send(p, 0, 1, Short, "lost")
		n.SendReliable(p, 0, 1, Short, "kept")
	})
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(*delivered) != 1 || (*delivered)[0] != "kept" {
		t.Fatalf("delivered %v, want only the reliable message", *delivered)
	}
	if n.Dropped() != 1 {
		t.Fatalf("dropped %d, want 1", n.Dropped())
	}
}

func TestLossProbNeedsSource(t *testing.T) {
	// Without a loss source the probability is ignored: fault-free runs
	// never pay for (or depend on) the loss draw.
	params := DefaultParams()
	params.LossProb = 1
	env, n, _, delivered := harness(t, params)
	defer env.Stop()
	env.Spawn("sender", func(p *sim.Proc) { n.Send(p, 0, 1, Short, "x") })
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(*delivered) != 1 {
		t.Fatalf("delivered %v, want 1 message", *delivered)
	}
}

func TestDownReceiverDropsAtDelivery(t *testing.T) {
	env, n, _, delivered := harness(t, DefaultParams())
	defer env.Stop()
	down := map[int]bool{1: true}
	n.SetDownCheck(func(node int) bool { return down[node] })
	env.Spawn("sender", func(p *sim.Proc) {
		n.Send(p, 0, 1, Short, "to-down")
		n.Send(p, 1, 0, Short, "from-down-ok")
	})
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	// Only the receiver is checked: a message TO the down node vanishes,
	// a message FROM it (sent before the crash took effect) arrives.
	if len(*delivered) != 1 || (*delivered)[0] != "from-down-ok" {
		t.Fatalf("delivered %v, want only from-down-ok", *delivered)
	}
	if n.Dropped() != 1 {
		t.Fatalf("dropped %d, want 1", n.Dropped())
	}
}

func TestStoreTransportShort(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	n := New(env, DefaultParams(), 2)
	store := gem.New(env, gem.DefaultParams())
	n.UseStore(&StoreTransport{Store: store, ShortInstr: 1000, LongInstr: 1500})
	cpu0 := cpusrv.New(env, "cpu0", 1, 10)
	cpu1 := cpusrv.New(env, "cpu1", 1, 10)
	var handlerAt sim.Time
	n.Register(0, cpu0, func(from int, msg any) {})
	n.Register(1, cpu1, func(from int, msg any) { handlerAt = env.Now() })
	env.Spawn("sender", func(p *sim.Proc) { n.Send(p, 0, 1, Short, 1) })
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	// Sender: 100 µs CPU + 2 µs entry; receiver the same; no wire
	// delay.
	want := 2 * (100 + 2) * time.Microsecond
	if handlerAt != want {
		t.Fatalf("handler at %v, want %v", handlerAt, want)
	}
	if store.EntryAccesses() != 2 {
		t.Fatalf("entry accesses %d, want 2", store.EntryAccesses())
	}
	if n.ShortSent() != 1 {
		t.Fatalf("short count %d", n.ShortSent())
	}
}

// TestStoreTransportInline reads a message out of the store on the
// callback tier: the receive access and the handler run without a
// process, at the same instant a receive process would have reached
// the handler.
func TestStoreTransportInline(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	n := New(env, DefaultParams(), 2)
	store := gem.New(env, gem.DefaultParams())
	n.UseStore(&StoreTransport{Store: store, ShortInstr: 1000, LongInstr: 1500})
	n.Register(0, cpusrv.New(env, "cpu0", 1, 10), func(from int, msg any) {})
	var handlerAt sim.Time
	n.Register(1, cpusrv.New(env, "cpu1", 1, 10), func(from int, msg any) {
		handlerAt = env.Now()
	})
	env.Spawn("sender", func(p *sim.Proc) { n.Send(p, 0, 1, Long, 1) })
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	// Sender: 150 µs CPU + 50 µs page; receiver the same.
	if want := 2 * (150 + 50) * time.Microsecond; handlerAt != want {
		t.Fatalf("handler at %v, want %v", handlerAt, want)
	}
	if store.PageAccesses() != 2 {
		t.Fatalf("page accesses %d, want 2", store.PageAccesses())
	}
}

func TestStoreTransportLongUsesPageAccess(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	n := New(env, DefaultParams(), 2)
	store := gem.New(env, gem.DefaultParams())
	n.UseStore(&StoreTransport{Store: store, ShortInstr: 1000, LongInstr: 1500})
	cpu0 := cpusrv.New(env, "cpu0", 1, 10)
	cpu1 := cpusrv.New(env, "cpu1", 1, 10)
	n.Register(0, cpu0, func(from int, msg any) {})
	n.Register(1, cpu1, func(from int, msg any) {})
	env.Spawn("sender", func(p *sim.Proc) { n.Send(p, 0, 1, Long, 1) })
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if store.PageAccesses() != 2 {
		t.Fatalf("page accesses %d, want 2", store.PageAccesses())
	}
}

func TestStoreTransportFasterThanNetwork(t *testing.T) {
	run := func(useStore bool) sim.Time {
		env := sim.NewEnv()
		defer env.Stop()
		n := New(env, DefaultParams(), 2)
		if useStore {
			n.UseStore(&StoreTransport{Store: gem.New(env, gem.DefaultParams()), ShortInstr: 1000, LongInstr: 1500})
		}
		cpu0 := cpusrv.New(env, "cpu0", 1, 10)
		cpu1 := cpusrv.New(env, "cpu1", 1, 10)
		var at sim.Time
		n.Register(0, cpu0, func(from int, msg any) {})
		n.Register(1, cpu1, func(from int, msg any) { at = env.Now() })
		env.Spawn("sender", func(p *sim.Proc) { n.Send(p, 0, 1, Short, 1) })
		if err := env.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
		return at
	}
	net, store := run(false), run(true)
	if store >= net {
		t.Fatalf("store transport (%v) must beat the network (%v)", store, net)
	}
}

// TestPostOnCallbackTier sends without a process: the send overhead is
// held on the sender's CPU, done runs when it completes, and the
// message arrives exactly when a process's Send would have delivered
// it.
func TestPostOnCallbackTier(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	n := New(env, DefaultParams(), 2)
	n.Register(0, cpusrv.New(env, "cpu0", 1, 10), func(from int, msg any) {})
	var doneAt, handlerAt sim.Time
	n.Register(1, cpusrv.New(env, "cpu1", 1, 10), func(from int, msg any) { handlerAt = env.Now() })
	n.Post(sim.Continuation{}, 0, 1, Short, "x", true, func() { doneAt = env.Now() })
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	// 500 µs send overhead; 10 µs transit; 500 µs receive overhead.
	if doneAt != 500*time.Microsecond || handlerAt != 1010*time.Microsecond {
		t.Fatalf("done at %v, handler at %v; want 500µs and 1.01ms", doneAt, handlerAt)
	}
	if n.ShortSent() != 1 {
		t.Fatalf("short messages sent %d, want 1", n.ShortSent())
	}
}
