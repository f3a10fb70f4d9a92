package node

import (
	"testing"
	"time"

	"gemsim/internal/model"
	"gemsim/internal/rng"
	"gemsim/internal/sim"
	"gemsim/internal/workload"
)

// checkingRouter asserts that every load-aware decision picks a node
// with the minimum activation count.
type checkingRouter struct {
	t      *testing.T
	inner  *LoadAwareRouter
	sys    *System
	routed int
}

func (r *checkingRouter) Route(tx *model.Txn) int {
	min := int(^uint(0) >> 1)
	for i := 0; i < r.sys.params.Nodes; i++ {
		if a := r.sys.ActiveTxns(i); a < min {
			min = a
		}
	}
	got := r.inner.Route(tx)
	if a := r.sys.ActiveTxns(got); a != min {
		r.t.Errorf("routed to node %d with %d active; minimum was %d", got, a, min)
	}
	r.routed++
	return got
}

// mixGen alternates tiny and huge transactions so per-count balancing
// (round robin) and per-load balancing diverge.
type mixGen struct {
	db   model.Database
	next int
}

func (g *mixGen) Database() *model.Database { return &g.db }

func (g *mixGen) Next(_ *rng.Source, _ time.Duration) model.Txn {
	g.next++
	if g.next%4 == 0 {
		refs := make([]model.Ref, 12)
		for i := range refs {
			refs[i] = model.Ref{Page: model.PageID{File: 1, Page: int32(10 + i)}}
		}
		return model.Txn{Type: 1, Refs: refs}
	}
	return model.Txn{Type: 0, Refs: []model.Ref{{Page: model.PageID{File: 1, Page: 1}}}}
}

func TestLoadAwareRouterPicksLeastLoaded(t *testing.T) {
	env := sim.NewEnv()
	t.Cleanup(env.Stop)
	gen := &mixGen{db: testDB()}
	params := testParams(3, CouplingGEM, false)
	inner := NewLoadAwareRouter()
	chk := &checkingRouter{t: t, inner: inner}
	sys, err := NewSystem(env, params, gen, chk, modGLA{3})
	if err != nil {
		t.Fatal(err)
	}
	// Attach happens for the inner router only when it is the
	// top-level router; do it explicitly for the wrapped case.
	inner.attach(sys)
	chk.sys = sys
	sys.Start(120)
	sys.ResetStats()
	if err := env.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if chk.routed < 200 {
		t.Fatalf("only %d routing decisions", chk.routed)
	}
	m := sys.Snapshot()
	if m.Commits == 0 {
		t.Fatal("no commits")
	}
}

func TestLoadAwareRouterChargesGEM(t *testing.T) {
	env := sim.NewEnv()
	t.Cleanup(env.Stop)
	gen := &mixGen{db: testDB()}
	params := testParams(2, CouplingGEM, false)
	router := NewLoadAwareRouter()
	sys, err := NewSystem(env, params, gen, router, modGLA{2})
	if err != nil {
		t.Fatal(err)
	}
	sys.Start(50)
	if err := env.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	// Status reads: one entry access per arrival on top of lock
	// processing.
	if sys.GEMDevice().EntryAccesses() == 0 {
		t.Fatal("status entry reads expected")
	}
}

var _ workload.Generator = (*mixGen)(nil)
