package node

import (
	"testing"
	"time"

	"gemsim/internal/model"
	"gemsim/internal/rng"
	"gemsim/internal/sim"
	"gemsim/internal/workload"
)

// scriptGen replays a fixed list of transactions cyclically.
type scriptGen struct {
	db   model.Database
	txns []model.Txn
	next int
}

var _ workload.Generator = (*scriptGen)(nil)

func (g *scriptGen) Database() *model.Database { return &g.db }

func (g *scriptGen) Next(_ *rng.Source, _ time.Duration) model.Txn {
	tx := g.txns[g.next%len(g.txns)]
	g.next++
	return tx
}

// typeRouter routes by transaction type (type = node id).
type typeRouter struct{ nodes int }

func (r typeRouter) Route(t *model.Txn) int { return t.Type % r.nodes }

// modGLA assigns GLAs round-robin by page number.
type modGLA struct{ nodes int }

func (g modGLA) GLA(p model.PageID) int {
	if p.Page < 0 {
		return 0
	}
	return int(p.Page) % g.nodes
}

func testDB() model.Database {
	return model.Database{Files: []model.File{
		{ID: 1, Name: "DATA", Pages: 64, BlockingFactor: 10, Locking: true, Medium: model.MediumDisk},
	}}
}

func pgID(n int32) model.PageID { return model.PageID{File: 1, Page: n} }

func testParams(nodes int, coupling Coupling, force bool) Params {
	p := DefaultParams(nodes)
	p.Coupling = coupling
	p.Force = force
	p.BufferPages = 16
	p.CheckInvariants = true
	p.MPL = 8
	return p
}

// runScript executes the scripted workload for simDur at the given
// rate and returns the system for inspection.
func runScript(t *testing.T, params Params, gen workload.Generator, rate float64, simDur time.Duration) (*System, Metrics) {
	t.Helper()
	env := sim.NewEnv()
	t.Cleanup(env.Stop)
	sys, err := NewSystem(env, params, gen, typeRouter{params.Nodes}, modGLA{params.Nodes})
	if err != nil {
		t.Fatal(err)
	}
	sys.Start(rate)
	sys.ResetStats()
	if err := env.Run(simDur); err != nil {
		t.Fatal(err)
	}
	return sys, sys.Snapshot()
}

func TestSingleNodeCommits(t *testing.T) {
	gen := &scriptGen{db: testDB(), txns: []model.Txn{
		{Type: 0, Refs: []model.Ref{{Page: pgID(1), Write: true}, {Page: pgID(2)}}},
	}}
	_, m := runScript(t, testParams(1, CouplingGEM, false), gen, 50, 2*time.Second)
	if m.Commits < 50 {
		t.Fatalf("commits %d, want >= 50", m.Commits)
	}
	if m.Aborts != 0 || m.Deadlocks != 0 {
		t.Fatalf("unexpected aborts/deadlocks: %d/%d", m.Aborts, m.Deadlocks)
	}
	if m.MeanResponseTime <= 0 {
		t.Fatal("no response time recorded")
	}
}

func TestGEMNoforceUsesPageRequests(t *testing.T) {
	// Node 0 writes page 1; node 1 reads it. Under NOFORCE the reader
	// must obtain the page from the owner, not from disk.
	gen := &scriptGen{db: testDB(), txns: []model.Txn{
		{Type: 0, Refs: []model.Ref{{Page: pgID(1), Write: true}}},
		{Type: 1, Refs: []model.Ref{{Page: pgID(1)}}},
	}}
	_, m := runScript(t, testParams(2, CouplingGEM, false), gen, 100, 2*time.Second)
	if m.PageRequests == 0 {
		t.Fatal("expected page requests between nodes under NOFORCE")
	}
	if m.Invalidations == 0 {
		t.Fatal("expected buffer invalidations")
	}
	if m.MeanPageReqDelay <= 0 {
		t.Fatal("page request delay not measured")
	}
}

func TestGEMForceReadsFromDisk(t *testing.T) {
	gen := &scriptGen{db: testDB(), txns: []model.Txn{
		{Type: 0, Refs: []model.Ref{{Page: pgID(1), Write: true}}},
		{Type: 1, Refs: []model.Ref{{Page: pgID(1)}}},
	}}
	sys, m := runScript(t, testParams(2, CouplingGEM, true), gen, 100, 2*time.Second)
	if m.PageRequests != 0 {
		t.Fatalf("FORCE must not use page requests, got %d", m.PageRequests)
	}
	if m.ForceWrites == 0 {
		t.Fatal("FORCE must write modified pages at commit")
	}
	if sys.Group(1).Reads() == 0 {
		t.Fatal("invalidated readers must re-read from disk under FORCE")
	}
}

func TestPCLCarriesPagesWithGrants(t *testing.T) {
	// Page 1 has GLA at node 1; node 0 writes it remotely, node 1 is
	// the owner. Reader at node 0 gets the page with the lock grant.
	gen := &scriptGen{db: testDB(), txns: []model.Txn{
		{Type: 0, Refs: []model.Ref{{Page: pgID(1), Write: true}}},
	}}
	_, m := runScript(t, testParams(2, CouplingPCL, false), gen, 100, 2*time.Second)
	if m.LongMessages == 0 {
		t.Fatal("PCL NOFORCE must ship modified pages with release messages")
	}
	if m.LocalLockShare >= 1 {
		t.Fatal("remote GLA locks must be counted as remote")
	}
}

func TestPCLLocalLocksFree(t *testing.T) {
	// All pages even -> GLA node 0 (mod 2); all txns at node 0.
	gen := &scriptGen{db: testDB(), txns: []model.Txn{
		{Type: 0, Refs: []model.Ref{{Page: pgID(2), Write: true}, {Page: pgID(4)}}},
	}}
	_, m := runScript(t, testParams(2, CouplingPCL, false), gen, 50, 2*time.Second)
	if m.LocalLockShare != 1 {
		t.Fatalf("local lock share %v, want 1 (all GLA-local)", m.LocalLockShare)
	}
	if m.ShortMessages != 0 || m.LongMessages != 0 {
		t.Fatalf("messages %d/%d, want none for purely local locking", m.ShortMessages, m.LongMessages)
	}
}

func TestPCLReadOptimization(t *testing.T) {
	// Node 0 repeatedly reads page 1 whose GLA is node 1: the first
	// lock is remote, subsequent ones are local under the read
	// authorization.
	gen := &scriptGen{db: testDB(), txns: []model.Txn{
		{Type: 0, Refs: []model.Ref{{Page: pgID(1)}}},
	}}
	_, m := runScript(t, testParams(2, CouplingPCL, false), gen, 100, 2*time.Second)
	if m.LocalLockShare < 0.9 {
		t.Fatalf("local lock share %v, want > 0.9 with read authorizations", m.LocalLockShare)
	}
}

func TestPCLWriteRevokesReadAuthorization(t *testing.T) {
	// Reader at node 0 (RA), writer at node 1; GLA of page 1 at node
	// 1. The writer's lock must revoke node 0's RA, forcing node 0
	// back to remote locking, and invalidations must be detected.
	gen := &scriptGen{db: testDB(), txns: []model.Txn{
		{Type: 0, Refs: []model.Ref{{Page: pgID(1)}}},
		{Type: 1, Refs: []model.Ref{{Page: pgID(1), Write: true}}},
	}}
	_, m := runScript(t, testParams(2, CouplingPCL, false), gen, 100, 2*time.Second)
	if m.Invalidations == 0 {
		t.Fatal("expected invalidations at the reading node")
	}
	if m.LocalLockShare > 0.9 {
		t.Fatalf("local lock share %v suspiciously high despite revocations", m.LocalLockShare)
	}
}

func TestDeadlockDetectionAndRestart(t *testing.T) {
	// Two transaction shapes locking pages 1 and 2 in opposite order.
	gen := &scriptGen{db: testDB(), txns: []model.Txn{
		{Type: 0, Refs: []model.Ref{{Page: pgID(1), Write: true}, {Page: pgID(2), Write: true}}},
		{Type: 0, Refs: []model.Ref{{Page: pgID(2), Write: true}, {Page: pgID(1), Write: true}}},
	}}
	params := testParams(1, CouplingGEM, false)
	_, m := runScript(t, params, gen, 200, 3*time.Second)
	if m.Deadlocks == 0 {
		t.Fatal("opposite lock order at high rate must deadlock")
	}
	if m.Aborts != m.Deadlocks {
		t.Fatalf("aborts %d != deadlocks %d", m.Aborts, m.Deadlocks)
	}
	if m.Commits < 100 {
		t.Fatalf("commits %d; victims must restart and finish", m.Commits)
	}
}

func TestDeadlockAcrossNodes(t *testing.T) {
	gen := &scriptGen{db: testDB(), txns: []model.Txn{
		{Type: 0, Refs: []model.Ref{{Page: pgID(2), Write: true}, {Page: pgID(3), Write: true}}},
		{Type: 1, Refs: []model.Ref{{Page: pgID(3), Write: true}, {Page: pgID(2), Write: true}}},
	}}
	for _, coupling := range []Coupling{CouplingGEM, CouplingPCL} {
		// 15 TPS per node keeps the offered load below the ~54/s
		// serialization ceiling of this fully conflicting workload
		// (every transaction holds both pages for ~18 ms at commit).
		_, m := runScript(t, testParams(2, coupling, false), gen, 15, 3*time.Second)
		if m.Commits < 75 {
			t.Fatalf("%v: commits %d; system must survive cross-node deadlocks", coupling, m.Commits)
		}
		if m.Aborts != m.Deadlocks {
			t.Fatalf("%v: aborts %d != deadlocks %d", coupling, m.Aborts, m.Deadlocks)
		}
	}
}

func TestHistoryAppendHitRatio(t *testing.T) {
	db := model.Database{Files: []model.File{
		{ID: 1, Name: "DATA", Pages: 64, BlockingFactor: 10, Locking: true, Medium: model.MediumDisk},
		{ID: 2, Name: "HIST", BlockingFactor: 20, AppendOnly: true, Medium: model.MediumDisk},
	}}
	gen := &scriptGen{db: db, txns: []model.Txn{
		{Type: 0, Refs: []model.Ref{
			{Page: pgID(1), Write: true},
			{Page: model.PageID{File: 2, Page: model.AppendPage}, Write: true},
		}},
	}}
	sys, _ := runScript(t, testParams(1, CouplingGEM, false), gen, 100, 4*time.Second)
	hit := sys.Node(0).Pool().HitRatio(1) // HIST, the database's second file
	// Blocking factor 20 -> one fresh page per 20 inserts -> 95% hits.
	if hit < 0.93 || hit > 0.97 {
		t.Fatalf("history hit ratio %v, want ~0.95", hit)
	}
}

func TestMPLLimitsConcurrency(t *testing.T) {
	gen := &scriptGen{db: testDB(), txns: []model.Txn{
		{Type: 0, Refs: []model.Ref{{Page: pgID(1), Write: true}}},
	}}
	params := testParams(1, CouplingGEM, false)
	params.MPL = 1
	// Serialized transactions at overload: input queueing must appear.
	_, m := runScript(t, params, gen, 60, 2*time.Second)
	if m.MeanInputQueueWait <= 0 {
		t.Fatal("MPL=1 at 60 TPS must cause input queueing")
	}
}

func TestUnlockedFileSkipsConcurrencyControl(t *testing.T) {
	db := model.Database{Files: []model.File{
		{ID: 1, Name: "NOLOCK", Pages: 8, BlockingFactor: 10, Locking: false, Medium: model.MediumDisk},
	}}
	gen := &scriptGen{db: db, txns: []model.Txn{
		{Type: 0, Refs: []model.Ref{{Page: pgID(3)}}},
	}}
	_, m := runScript(t, testParams(1, CouplingGEM, false), gen, 50, time.Second)
	if m.LockRequests != 0 {
		t.Fatalf("lock requests %d for unlocked file", m.LockRequests)
	}
}

func TestGEMResidentFileAvoidsDisk(t *testing.T) {
	db := model.Database{Files: []model.File{
		{ID: 1, Name: "DATA", Pages: 64, BlockingFactor: 10, Locking: true, Medium: model.MediumGEM},
	}}
	gen := &scriptGen{db: db, txns: []model.Txn{
		{Type: 0, Refs: []model.Ref{{Page: pgID(1), Write: true}, {Page: pgID(5)}}},
		{Type: 0, Refs: []model.Ref{{Page: pgID(2), Write: true}, {Page: pgID(6)}}},
		{Type: 0, Refs: []model.Ref{{Page: pgID(3), Write: true}, {Page: pgID(7)}}},
		{Type: 0, Refs: []model.Ref{{Page: pgID(4), Write: true}, {Page: pgID(8)}}},
	}}
	params := testParams(1, CouplingGEM, true)
	params.LogInGEM = true
	sys, m := runScript(t, params, gen, 50, 2*time.Second)
	if sys.Group(1) != nil {
		t.Fatal("GEM-resident file must not have a disk group")
	}
	if m.GEMPageAcc == 0 {
		t.Fatal("GEM page accesses expected for a GEM-resident file")
	}
	// With database and log in GEM no disk is ever touched: response
	// times stay in the CPU-dominated regime, far below one disk
	// access.
	if m.StorageReads > 0 && m.GEMPageAcc == 0 {
		t.Fatal("reads must be served by GEM")
	}
	// Pure CPU service of this two-reference script is 15 ms (30k +
	// 2x50k + 20k instructions on a 10 MIPS processor); everything on
	// top would be storage. Staying under one disk access time (16.4
	// ms) proves no disk was involved.
	if m.MeanResponseTime > 16*time.Millisecond {
		t.Fatalf("RT %v too high for an all-GEM configuration", m.MeanResponseTime)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() Metrics {
		gen := &scriptGen{db: testDB(), txns: []model.Txn{
			{Type: 0, Refs: []model.Ref{{Page: pgID(1), Write: true}, {Page: pgID(5)}}},
			{Type: 1, Refs: []model.Ref{{Page: pgID(5), Write: true}}},
		}}
		env := sim.NewEnv()
		defer env.Stop()
		sys, err := NewSystem(env, testParams(2, CouplingGEM, false), gen, typeRouter{2}, modGLA{2})
		if err != nil {
			t.Fatal(err)
		}
		sys.Start(80)
		sys.ResetStats()
		if err := env.Run(2 * time.Second); err != nil {
			t.Fatal(err)
		}
		return sys.Snapshot()
	}
	a, b := run(), run()
	if a.Commits != b.Commits || a.MeanResponseTime != b.MeanResponseTime ||
		a.Invalidations != b.Invalidations || a.ShortMessages != b.ShortMessages {
		t.Fatalf("runs diverged:\n%+v\n%+v", a, b)
	}
}

func TestParamsValidate(t *testing.T) {
	good := DefaultParams(2)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Params){
		func(p *Params) { p.Nodes = 0 },
		func(p *Params) { p.CPUsPerNode = 0 },
		func(p *Params) { p.MPL = 0 },
		func(p *Params) { p.BufferPages = 0 },
		func(p *Params) { p.Coupling = 0 },
		func(p *Params) { p.BOTInstr = -1 },
		func(p *Params) { p.DisksPerFile = 0 },
	}
	for i, mutate := range cases {
		p := DefaultParams(2)
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestPCLNeedsGLA(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	gen := &scriptGen{db: testDB(), txns: []model.Txn{{Type: 0, Refs: []model.Ref{{Page: pgID(1)}}}}}
	p := testParams(1, CouplingPCL, false)
	if _, err := NewSystem(env, p, gen, typeRouter{1}, nil); err == nil {
		t.Fatal("PCL without GLA map must be rejected")
	}
}
