package node

import (
	"testing"
	"time"

	"gemsim/internal/lock"
	"gemsim/internal/model"
	"gemsim/internal/sim"
)

// activeOwner returns the owner of the attempt running at node, or the
// zero Owner.
func activeOwner(sys *System, node int) lock.Owner {
	for _, t := range sys.active {
		if t != nil && t.node.id == node {
			return t.owner
		}
	}
	return lock.Owner{}
}

// TestKilledOwnerLocksStayApart: a crash-killed attempt's locks stay
// registered until recovery releases them, long after the attempt
// ended. The node is repaired before recovery starts, and its next
// attempt must get an owner handle of its own: the killed owner's
// locks and the new owner's stay apart, and recovery releases only the
// former.
func TestKilledOwnerLocksStayApart(t *testing.T) {
	params := faultParams(2, CouplingGEM)
	params.DetectDelay = 500 * time.Millisecond
	env := sim.NewEnv()
	t.Cleanup(env.Stop)
	sys, err := NewSystem(env, params, &scriptGen{db: testDB()}, typeRouter{2}, modGLA{2})
	if err != nil {
		t.Fatal(err)
	}
	tbl := sys.tables[0]
	p1, p2, p3 := sys.dir.Of(pgID(1)), sys.dir.Of(pgID(2)), sys.dir.Of(pgID(3))
	// An orphan holds page 2, so the loser blocks there holding page 1.
	tbl.Request(p2, sys.owners.New(99, 1), model.LockWrite, nil)
	run := func(refs ...model.Ref) {
		env.Spawn("txn", func(p *sim.Proc) {
			n := sys.nodes[1]
			n.gate.wait(p)
			n.runTxn(p, model.Txn{Type: 1, Refs: refs}, env.Now(), env.Now(), nil)
		})
	}
	env.After(10*time.Millisecond, func() {
		run(model.Ref{Page: pgID(1), Write: true}, model.Ref{Page: pgID(2), Write: true})
	})
	var loser lock.Owner
	env.After(100*time.Millisecond, func() {
		if loser = activeOwner(sys, 1); !tbl.HoldsLock(p1, loser, model.LockWrite) || tbl.Waiting(loser) == nil {
			t.Error("the loser must hold page 1 and wait for page 2 at the crash")
		}
		sys.CrashNode(1)
	})
	env.After(150*time.Millisecond, func() { sys.RepairNode(1) })
	checked := false
	sys.pageObserver = func(slot int32) {
		if slot != p3 {
			return
		}
		next := activeOwner(sys, 1)
		if next.Index() == loser.Index() {
			t.Errorf("the next attempt %v got the handle of the killed %v, whose locks are still registered", next, loser)
		}
		if tbl.HeldCount(loser) != 1 || !tbl.HoldsLock(p1, loser, model.LockWrite) || tbl.HoldsLock(p3, loser, model.LockRead) {
			t.Errorf("killed owner holds %d locks, want page 1 only", tbl.HeldCount(loser))
		}
		if tbl.HeldCount(next) != 1 || !tbl.HoldsLock(p3, next, model.LockWrite) || tbl.HoldsLock(p1, next, model.LockRead) {
			t.Errorf("next attempt holds %d locks, want page 3 only", tbl.HeldCount(next))
		}
		checked = true
	}
	env.After(200*time.Millisecond, func() { run(model.Ref{Page: pgID(3), Write: true}) })
	if err := env.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Fatal("the next attempt never locked page 3")
	}
	if m := sys.Snapshot(); len(m.Failovers) != 1 || m.Commits != 1 {
		t.Fatalf("failovers %d, commits %d: want the recovery and the next attempt's commit", len(m.Failovers), m.Commits)
	}
	if tbl.HeldCount(loser) != 0 {
		t.Error("recovery must release the killed owner's locks")
	}
	if live := sys.owners.Live(); live != 1 {
		t.Errorf("%d owner handles live after recovery, want 1 (the orphan)", live)
	}
}

// TestReleaseInFlightOwnerStaysApart: a PCL commit does not wait for
// its release messages, so its locks at a remote GLA outlive the
// attempt. The same node's next attempt registers a read lock at that
// GLA at once, under a read authorization, while the release is still
// in flight: it must get an owner handle of its own, and the release
// must drop only the committed owner's lock.
func TestReleaseInFlightOwnerStaysApart(t *testing.T) {
	params := testParams(2, CouplingPCL, false)
	params.Net.WireLatency = 50 * time.Millisecond // keeps the release in flight
	env := sim.NewEnv()
	t.Cleanup(env.Stop)
	sys, err := NewSystem(env, params, &scriptGen{db: testDB()}, typeRouter{2}, modGLA{2})
	if err != nil {
		t.Fatal(err)
	}
	tbl := sys.tables[1] // node 1's partition: odd pages
	p1, p3 := sys.dir.Of(pgID(1)), sys.dir.Of(pgID(3))
	var committed lock.Owner
	checked := false
	sys.pageObserver = func(slot int32) {
		switch owner := activeOwner(sys, 0); {
		case slot == p1:
			committed = owner
		case slot == p3 && committed != (lock.Owner{}):
			if tbl.HeldCount(committed) != 1 || !tbl.HoldsLock(p1, committed, model.LockWrite) {
				t.Error("the committed owner's release must still be in flight")
			}
			if owner.Index() == committed.Index() {
				t.Errorf("the next attempt %v got the handle of %v, whose release is in flight", owner, committed)
			}
			if tbl.HeldCount(owner) != 1 || !tbl.HoldsLock(p3, owner, model.LockRead) || tbl.HoldsLock(p3, committed, model.LockRead) {
				t.Errorf("next attempt holds %d locks at the GLA, want its read lock on page 3 only", tbl.HeldCount(owner))
			}
			checked = true
		}
	}
	env.Spawn("txns", func(p *sim.Proc) {
		n := sys.nodes[0]
		run := func(ref model.Ref) {
			n.gate.wait(p)
			n.runTxn(p, model.Txn{Refs: []model.Ref{ref}}, env.Now(), env.Now(), nil)
		}
		run(model.Ref{Page: pgID(3)}) // takes the read authorization on page 3
		p.Wait(200 * time.Millisecond)
		run(model.Ref{Page: pgID(1), Write: true}) // commits with its release in flight
		run(model.Ref{Page: pgID(3)})              // reads page 3 under the authorization
	})
	if err := env.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Fatal("the next attempt never read page 3 under its read authorization")
	}
	if tbl.HeldCount(committed) != 0 || tbl.HoldsLock(p1, committed, model.LockRead) {
		t.Error("the release must drop the committed owner's lock")
	}
	if live := sys.owners.Live(); live != 0 {
		t.Errorf("%d owner handles live after every attempt ended and every message was handled", live)
	}
}
