package node

import (
	"testing"
	"time"

	"gemsim/internal/lock"
	"gemsim/internal/model"
	"gemsim/internal/netsim"
	"gemsim/internal/sim"
)

// faultParams arms the failure machinery on top of the standard test
// parameters. The coherency oracle must be off: crashes legitimately
// lose uncommitted state.
func faultParams(nodes int, coupling Coupling) Params {
	p := testParams(nodes, coupling, false)
	p.CheckInvariants = false
	p.LockWaitTimeout = 200 * time.Millisecond
	p.RetryBackoffCap = 200 * time.Millisecond
	p.CheckpointInterval = 500 * time.Millisecond
	p.DetectDelay = 20 * time.Millisecond
	p.ArmFaults()
	return p
}

// TestCrashFailoverCompletes injects a node crash mid-run for both
// coupling modes and checks that the survivors recover the failed
// node's lock state, redo its updates and keep committing, and that the
// repaired node rejoins.
func TestCrashFailoverCompletes(t *testing.T) {
	for _, coupling := range []Coupling{CouplingGEM, CouplingPCL} {
		gen := &scriptGen{db: testDB(), txns: []model.Txn{
			{Type: 0, Refs: []model.Ref{{Page: pgID(1), Write: true}, {Page: pgID(2)}}},
			{Type: 1, Refs: []model.Ref{{Page: pgID(1), Write: true}, {Page: pgID(3)}}},
		}}
		params := faultParams(2, coupling)
		env := sim.NewEnv()
		sys, err := NewSystem(env, params, gen, typeRouter{2}, modGLA{2})
		if err != nil {
			t.Fatal(err)
		}
		env.After(time.Second, func() { sys.CrashNode(1) })
		env.After(2500*time.Millisecond, func() { sys.RepairNode(1) })
		sys.Start(30)
		sys.ResetStats()
		if err := env.Run(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		m := sys.Snapshot()
		env.Stop()

		if len(m.Failovers) != 1 {
			t.Fatalf("%v: failovers %d, want 1", coupling, len(m.Failovers))
		}
		fs := m.Failovers[0]
		if fs.Node != 1 || fs.CrashAt != time.Second {
			t.Fatalf("%v: unexpected failover record %+v", coupling, fs)
		}
		if fs.RecoveryDuration <= 0 || fs.RecoveredAt <= fs.DetectAt || fs.DetectAt <= fs.CrashAt {
			t.Fatalf("%v: recovery phases out of order: %+v", coupling, fs)
		}
		if m.TxnsKilled == 0 || m.TxnsRetried == 0 {
			t.Fatalf("%v: killed %d retried %d; in-flight transactions must be killed and resubmitted",
				coupling, m.TxnsKilled, m.TxnsRetried)
		}
		// The complex must keep committing through crash and recovery:
		// 60/s offered over 5 s with a ~1.5 s single-node outage.
		if m.Commits < 100 {
			t.Fatalf("%v: commits %d, want >= 100 across the outage", coupling, m.Commits)
		}
		if m.MeanRTDuringRecovery <= 0 {
			t.Fatalf("%v: no degraded-phase response time measured", coupling)
		}
	}
}

// TestOrphanedLockStallsWithoutTimeout is the regression test for the
// stall diagnostic: a lock held by an owner that will never release it
// (here planted directly in the table, as a lost release message would)
// must leave the simulation detectably stalled rather than silently
// truncated — and a lock-wait timeout must turn the same situation into
// abort-and-retry so the run completes.
func TestOrphanedLockStallsWithoutTimeout(t *testing.T) {
	run := func(armTimeout bool) (*sim.Env, Metrics) {
		gen := &scriptGen{db: testDB(), txns: []model.Txn{
			{Type: 0, Refs: []model.Ref{{Page: pgID(1), Write: true}}},
		}}
		params := testParams(1, CouplingGEM, false)
		params.CheckInvariants = false
		if armTimeout {
			params.LockWaitTimeout = 50 * time.Millisecond
			params.RetryBackoffCap = 100 * time.Millisecond
			params.ArmFaults()
		}
		env := sim.NewEnv()
		t.Cleanup(env.Stop)
		sys, err := NewSystem(env, params, gen, typeRouter{1}, modGLA{1})
		if err != nil {
			t.Fatal(err)
		}
		// Orphan the page-1 write lock: owner 99 exists on no node and
		// never waits, so no deadlock cycle ever forms through it.
		sys.tables[0].Request(sys.dir.Of(pgID(1)), lock.Owner{Node: 99, Tx: 1}, model.LockWrite, nil)
		// A closed workload: once every terminal is blocked on the
		// orphan, the event calendar drains (an open source would keep
		// scheduling arrivals and mask the stall).
		if err := sys.StartClosed(2, 10*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if err := env.Run(2 * time.Second); err != nil {
			t.Fatal(err)
		}
		return env, sys.Snapshot()
	}

	env, m := run(false)
	if !env.Stalled() {
		t.Fatal("orphaned lock without timeout must stall the simulation")
	}
	if env.LiveCount() == 0 {
		t.Fatal("the blocked terminals must still be live")
	}
	if m.Commits != 0 {
		t.Fatalf("commits %d, want 0 behind an orphaned exclusive lock", m.Commits)
	}

	env, m = run(true)
	if env.Stalled() {
		t.Fatal("with a lock-wait timeout the simulation must keep running")
	}
	// Each retry blocks on the orphan again and times out again: more
	// than one timeout proves the abort-and-retry loop is running.
	if m.LockTimeouts < 2 {
		t.Fatalf("lock timeouts %d, want >= 2 against a permanently orphaned lock", m.LockTimeouts)
	}
}

// TestFaultParamsValidate covers the fault-specific parameter rules.
func TestFaultParamsValidate(t *testing.T) {
	cases := []func(*Params){
		func(p *Params) { p.FaultsEnabled = true; p.Coupling = CouplingLockEngine; p.Force = true },
		func(p *Params) { p.FaultsEnabled = true; p.CheckInvariants = true },
		func(p *Params) { p.LockWaitTimeout = -time.Second },
		func(p *Params) { p.RetryBackoffCap = -time.Second },
		func(p *Params) { p.CheckpointInterval = -time.Second },
		func(p *Params) { p.DetectDelay = -time.Second },
		func(p *Params) { p.RecoveryApplyInstr = -1 },
		func(p *Params) { p.Net.LossProb = 1 },
	}
	for i, mutate := range cases {
		p := DefaultParams(2)
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

// TestPCLRedoSeesReleaseDuringRebuild: node 2 crashes holding page 2
// (GLA partition 2, served by node 2) dirty, and the commit of that
// version is recorded only by a lock release that reaches the adopted
// partition while the coordinator is parked in the lock-table rebuild.
// The partition's table as it stood before adoption has no committed
// version, so recovery must also read the adopted table after the
// rebuild to redo the page.
func TestPCLRedoSeesReleaseDuringRebuild(t *testing.T) {
	params := faultParams(3, CouplingPCL)
	env := sim.NewEnv()
	t.Cleanup(env.Stop)
	sys, err := NewSystem(env, params, &scriptGen{db: testDB()}, typeRouter{3}, modGLA{3})
	if err != nil {
		t.Fatal(err)
	}
	page := sys.dir.Of(pgID(2))
	sys.nodes[2].pool.Insert(page, 1, true)
	const crashAt = time.Second
	env.After(crashAt, func() { sys.CrashNode(2) })
	// The coordinator (node 0) adopts partition 2 at detection and then
	// waits for the survivors' rebuild replies; node 1's release,
	// sent right after adoption, arrives first.
	env.After(crashAt+params.DetectDelay+time.Microsecond, func() {
		if sys.glaHome[2] != 0 {
			t.Error("partition 2 must be adopted by node 0 before the release is sent")
		}
		env.Spawn("release", func(p *sim.Proc) {
			m := sys.newMsg(msgLockRelease)
			m.owner, m.gla = lock.Owner{Node: 1, Tx: 1}, 2
			m.pages = append(m.pages, msgPage{slot: page, seq: 1})
			sys.net.SendReliable(p, 1, 0, netsim.Short, m)
		})
	})
	if err := env.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	m := sys.Snapshot()
	if len(m.Failovers) != 1 {
		t.Fatalf("failovers %d, want 1", len(m.Failovers))
	}
	if got := m.Failovers[0].PagesRedone; got != 1 {
		t.Fatalf("pages redone %d, want 1: the commit that landed during the rebuild must be redone", got)
	}
}

// TestPCLRedoSkipsLoserPageAfterAdoption: page 2 is committed (FORCE)
// at node 2 while node 2 serves its partition; node 2 then crashes and
// node 0 adopts the partition, whose rebuilt table starts without the
// page's metadata. At node 0's later crash a killed transaction has
// the page dirty. The only committed version predates the adoption and
// is on storage, so recovery must not redo the page.
func TestPCLRedoSkipsLoserPageAfterAdoption(t *testing.T) {
	params := faultParams(3, CouplingPCL)
	params.Force = true
	env := sim.NewEnv()
	t.Cleanup(env.Stop)
	sys, err := NewSystem(env, params, &scriptGen{db: testDB()}, typeRouter{3}, modGLA{3})
	if err != nil {
		t.Fatal(err)
	}
	page := pgID(2)
	run := func(node int, refs ...model.Ref) {
		env.Spawn("txn", func(p *sim.Proc) {
			n := sys.nodes[node]
			n.gate.wait(p)
			n.runTxn(p, model.Txn{Type: node, Refs: refs}, env.Now(), env.Now(), nil)
		})
	}
	env.After(100*time.Millisecond, func() { run(2, model.Ref{Page: page, Write: true}) })
	env.After(time.Second, func() { sys.CrashNode(2) })
	// The loser writes page 2 first, then stalls on disk reads.
	const loserAt = 2 * time.Second
	env.After(loserAt, func() {
		run(0, model.Ref{Page: page, Write: true}, model.Ref{Page: pgID(4)}, model.Ref{Page: pgID(7)}, model.Ref{Page: pgID(10)})
	})
	env.After(loserAt+30*time.Millisecond, func() {
		if fr := sys.nodes[0].pool.Peek(sys.dir.Of(page)); fr == nil || !fr.Dirty {
			t.Error("the loser must hold page 2 dirty at the crash")
		}
		sys.CrashNode(0)
	})
	if err := env.Run(4 * time.Second); err != nil {
		t.Fatal(err)
	}
	m := sys.Snapshot()
	if m.Commits != 1 {
		t.Fatalf("commits %d, want the one committed write of page 2", m.Commits)
	}
	if len(m.Failovers) != 2 {
		t.Fatalf("failovers %d, want 2", len(m.Failovers))
	}
	if fs := m.Failovers[1]; fs.Node != 0 || fs.TxnsKilled != 1 || fs.PagesRedone != 0 {
		t.Fatalf("second failover %+v: want node 0, one loser, no page redone", fs)
	}
}
