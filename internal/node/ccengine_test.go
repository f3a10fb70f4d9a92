package node

import (
	"errors"
	"testing"
	"time"

	"gemsim/internal/cc"
	"gemsim/internal/model"
	"gemsim/internal/sim"
)

// TestOCCObservations drives OCC attempts on one GEM-coupled node by
// hand while concurrent transactions commit the pages they observed
// (the attempts run in a simulated process, so failures are reported
// with Errorf):
//
//   - a repeated read records nothing new, and validation then fails
//     with a validation conflict on the overwritten page;
//   - a write to a page first read keeps the read's version, so the
//     same overwrite fails validation as a write-write conflict.
func TestOCCObservations(t *testing.T) {
	params := testParams(1, CouplingGEM, false)
	params.CC = cc.KindOCC
	params.CheckInvariants = false
	env := sim.NewEnv()
	t.Cleanup(env.Stop)
	sys, err := NewSystem(env, params, &scriptGen{db: testDB()}, typeRouter{1}, modGLA{1})
	if err != nil {
		t.Fatal(err)
	}
	n := sys.nodes[0]
	// begin sets up an attempt the way runTxn does.
	begin := func(p *sim.Proc) *txn {
		a := n.newTxn()
		a.proc = p
		a.id = sys.nextTxID()
		a.owner = sys.owners.New(n.id, a.id)
		a.observed.Reset(0)
		return a
	}
	commitWrite := func(page model.PageID) {
		env.Spawn("writer", func(p *sim.Proc) {
			n.gate.wait(p)
			n.runTxn(p, model.Txn{Refs: []model.Ref{{Page: page, Write: true}}}, env.Now(), env.Now(), nil)
		})
	}
	access := func(a *txn, page model.PageID, mode model.LockMode) (first bool) {
		t.Helper()
		_, first, err := n.cc.access(a, sys.dir.Of(page), mode)
		if err != nil {
			t.Errorf("access %v in mode %v: %v", page, mode, err)
		}
		return first
	}
	validate := func(a *txn, page model.PageID, want cc.Reason) {
		t.Helper()
		var cf *cc.Conflict
		if err := n.opt.validate(a); !errors.As(err, &cf) || cf.Reason != want || cf.Page != page {
			t.Errorf("validation = %v, want a %s conflict on %v", err, want, page)
		}
	}

	read, upgraded := pgID(1), pgID(2)
	done := false
	env.Spawn("attempts", func(p *sim.Proc) {
		a, b := begin(p), begin(p)
		if !access(a, read, model.LockRead) {
			t.Error("first read of a page is not a first touch")
		}
		access(b, upgraded, model.LockRead)
		bRead := b.observed.Get(sys.dir.Of(upgraded))
		if access(b, upgraded, model.LockWrite) {
			t.Error("write after a read is a first touch")
		}
		aSeen, bSeen := a.observed.Get(sys.dir.Of(read)), b.observed.Get(sys.dir.Of(upgraded))
		if aSeen.mode != model.LockRead || bSeen != (observation{version: bRead.version, mode: model.LockWrite}) {
			t.Errorf("observed %+v and %+v, want a read and a write at the read's version %d", aSeen, bSeen, bRead.version)
		}
		commitWrite(read)
		commitWrite(upgraded)
		p.Wait(time.Second)
		if n.commits != 2 || sys.gltMetaOf(sys.dir.Of(read)).Seq == aSeen.version {
			t.Errorf("%d concurrent commits, want 2 that advance the pages' sequence numbers", n.commits)
			return
		}
		if access(a, read, model.LockRead) {
			t.Error("repeated read is a first touch")
		}
		if got := a.observed.Get(sys.dir.Of(read)); a.observed.Len() != 1 || got != aSeen {
			t.Errorf("after a repeated read: %d observations, %+v; want only %+v", a.observed.Len(), got, aSeen)
		}
		validate(a, read, cc.ReasonValidation)
		validate(b, upgraded, cc.ReasonWW)
		done = true
	})
	if err := env.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("the attempts did not finish")
	}
}
