package node

import (
	"math"
	"testing"
	"time"

	"gemsim/internal/attrib"
	"gemsim/internal/model"
	"gemsim/internal/sim"
)

// runClosed drives the scripted workload with a closed-loop source.
func runClosed(t *testing.T, params Params, gen *scriptGen, terminals int, think, simDur time.Duration) (*System, Metrics) {
	t.Helper()
	env := sim.NewEnv()
	t.Cleanup(env.Stop)
	sys, err := NewSystem(env, params, gen, typeRouter{params.Nodes}, modGLA{params.Nodes})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.StartClosed(terminals, think); err != nil {
		t.Fatal(err)
	}
	sys.ResetStats()
	if err := env.Run(simDur); err != nil {
		t.Fatal(err)
	}
	return sys, sys.Snapshot()
}

// TestStartClosedRejectsNoTerminals checks that the closed-loop source
// reports a non-positive terminal count as an error.
func TestStartClosedRejectsNoTerminals(t *testing.T) {
	params := testParams(1, CouplingGEM, false)
	gen := &scriptGen{db: testDB(), txns: []model.Txn{{Type: 0, Refs: []model.Ref{{Page: pgID(1)}}}}}
	for _, terminals := range []int{0, -3} {
		env := sim.NewEnv()
		sys, err := NewSystem(env, params, gen, typeRouter{params.Nodes}, modGLA{params.Nodes})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.StartClosed(terminals, time.Second); err == nil {
			t.Errorf("StartClosed(%d) accepted", terminals)
		}
		env.Stop()
	}
}

func TestClosedLoopThroughputBound(t *testing.T) {
	gen := &scriptGen{db: testDB(), txns: []model.Txn{
		{Type: 0, Refs: []model.Ref{{Page: pgID(1), Write: true}}},
	}}
	// One terminal, no think time: throughput = 1 / response time.
	_, m := runClosed(t, testParams(1, CouplingGEM, false), gen, 1, 0, 4*time.Second)
	if m.Commits == 0 {
		t.Fatal("no commits")
	}
	cycle := m.MeanResponseTime.Seconds()
	want := 1 / cycle
	if m.Throughput < want*0.9 || m.Throughput > want*1.1 {
		t.Fatalf("closed-loop throughput %.1f, want ~%.1f (1/RT)", m.Throughput, want)
	}
}

func TestClosedLoopThinkTimeLowersRate(t *testing.T) {
	gen := func() *scriptGen {
		return &scriptGen{db: testDB(), txns: []model.Txn{
			{Type: 0, Refs: []model.Ref{{Page: pgID(1), Write: true}}},
		}}
	}
	_, fast := runClosed(t, testParams(1, CouplingGEM, false), gen(), 4, 0, 4*time.Second)
	_, slow := runClosed(t, testParams(1, CouplingGEM, false), gen(), 4, 500*time.Millisecond, 4*time.Second)
	if slow.Throughput >= fast.Throughput {
		t.Fatalf("think time must lower throughput: %.1f vs %.1f", slow.Throughput, fast.Throughput)
	}
}

func TestClosedLoopMoreTerminalsMoreThroughput(t *testing.T) {
	gen := func() *scriptGen {
		return &scriptGen{db: testDB(), txns: []model.Txn{
			{Type: 0, Refs: []model.Ref{{Page: pgID(1), Write: true}, {Page: pgID(2)}}},
			{Type: 0, Refs: []model.Ref{{Page: pgID(3), Write: true}, {Page: pgID(4)}}},
		}}
	}
	_, one := runClosed(t, testParams(1, CouplingGEM, false), gen(), 1, 0, 4*time.Second)
	_, four := runClosed(t, testParams(1, CouplingGEM, false), gen(), 4, 0, 4*time.Second)
	if four.Throughput <= one.Throughput {
		t.Fatalf("4 terminals (%.1f TPS) must out-run 1 terminal (%.1f TPS)", four.Throughput, one.Throughput)
	}
}

// TestGlobalLogMerge checks that both sources run the global log
// merge beside their workload.
func TestGlobalLogMerge(t *testing.T) {
	gen := func() *scriptGen {
		return &scriptGen{db: testDB(), txns: []model.Txn{
			{Type: 0, Refs: []model.Ref{{Page: pgID(1), Write: true}}},
			{Type: 1, Refs: []model.Ref{{Page: pgID(2), Write: true}}},
		}}
	}
	params := testParams(2, CouplingGEM, false)
	params.LogInGEM = true
	params.GlobalLogMerge = true
	for _, tc := range []struct {
		name string
		run  func() (*System, Metrics)
	}{
		{"open", func() (*System, Metrics) { return runScript(t, params, gen(), 50, 3*time.Second) }},
		{"closed", func() (*System, Metrics) { return runClosed(t, params, gen(), 4, 0, 3*time.Second) }},
	} {
		sys, m := tc.run()
		if m.LogWrites == 0 {
			t.Fatalf("%s: log writes expected", tc.name)
		}
		merged := sys.MergedLogPages()
		// Everything written long enough ago must have been merged (the
		// last interval may still be pending).
		if merged == 0 || merged < m.LogWrites*8/10 {
			t.Fatalf("%s: merged %d of %d log pages; the merge process must keep up", tc.name, merged, m.LogWrites)
		}
	}
}

// TestClosedLoopLimitRaiseAdmitsQueued checks that raising a node's
// limit admits queued terminals' transactions in the same instant and
// in arrival order, as it does for open-loop arrivals.
func TestClosedLoopLimitRaiseAdmitsQueued(t *testing.T) {
	const terminals = 40
	gen := &scriptGen{db: testDB()}
	for i := 0; i < terminals; i++ {
		gen.txns = append(gen.txns, model.Txn{Type: i, Refs: []model.Ref{{Page: pgID(int32(1 + i%8)), Write: true}}})
	}
	params := testParams(1, CouplingGEM, false)
	params.MPL = 2
	env := sim.NewEnv()
	t.Cleanup(env.Stop)
	sys, err := NewSystem(env, params, gen, typeRouter{1}, modGLA{1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.StartClosed(terminals, 0); err != nil {
		t.Fatal(err)
	}
	const at = 100 * time.Millisecond
	if err := env.Run(at); err != nil {
		t.Fatal(err)
	}
	g := sys.nodes[0].gate
	var queued []int
	for _, it := range g.ring[g.head:] {
		queued = append(queued, it.spec.Type)
	}
	if g.held != 2 || len(queued) != terminals-2 {
		t.Fatalf("before the raise: %d held, %d queued; want 2 and %d", g.held, len(queued), terminals-2)
	}
	g.setLimit(30)
	if err := env.Run(at + time.Microsecond); err != nil {
		t.Fatal(err)
	}
	if sys.live != 30 {
		t.Fatalf("%d attempts active 1 µs after the raise, want 30", sys.live)
	}
	running := map[int]bool{}
	for _, tx := range sys.active {
		if tx != nil {
			running[tx.spec.Type] = true
		}
	}
	for i, typ := range queued {
		if running[typ] != (i < 28) {
			t.Fatalf("queued %v: the raise must admit the oldest 28, running %v", queued, running)
		}
	}
}

// TestClosedLoopInputPhase checks that a queueing closed loop charges
// the wait for a slot to the input phase, so the input phase equals
// the input-queue wait and no response time is left in "other".
func TestClosedLoopInputPhase(t *testing.T) {
	gen := &scriptGen{db: testDB(), txns: []model.Txn{
		{Type: 0, Refs: []model.Ref{{Page: pgID(1), Write: true}, {Page: pgID(2)}}},
		{Type: 0, Refs: []model.Ref{{Page: pgID(3), Write: true}, {Page: pgID(4)}}},
	}}
	params := testParams(1, CouplingGEM, false)
	params.MPL = 2
	_, m := runClosed(t, params, gen, 20, 0, 4*time.Second)
	input := m.Phases.PhaseMean(attrib.PhaseInput)
	if wait := m.MeanInputQueueWait; wait < 10*time.Millisecond || math.Abs(float64(input-wait)) > 0.02*float64(wait) {
		t.Fatalf("input phase %v, input-queue wait %v: want them equal and the loop queueing", input, wait)
	}
	if other := m.Phases.PhaseMean(attrib.PhaseOther); other != 0 {
		t.Fatalf("other phase %v, want 0", other)
	}
}

func TestGlobalLogMergeRequiresGEMLog(t *testing.T) {
	params := testParams(1, CouplingGEM, false)
	params.GlobalLogMerge = true
	if err := params.Validate(); err == nil {
		t.Fatal("GlobalLogMerge without LogInGEM must be rejected")
	}
}
