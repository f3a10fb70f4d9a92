package node

import (
	"testing"
	"time"

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

func TestGlobalLogMerge(t *testing.T) {
	gen := &scriptGen{db: testDB(), txns: []model.Txn{
		{Type: 0, Refs: []model.Ref{{Page: pgID(1), Write: true}}},
		{Type: 1, Refs: []model.Ref{{Page: pgID(2), Write: true}}},
	}}
	params := testParams(2, CouplingGEM, false)
	params.LogInGEM = true
	params.GlobalLogMerge = true
	sys, m := runScript(t, params, gen, 50, 3*time.Second)
	if m.LogWrites == 0 {
		t.Fatal("log writes expected")
	}
	merged := sys.MergedLogPages()
	if merged == 0 {
		t.Fatal("the merge process must have consumed local log pages")
	}
	// Everything written long enough ago must have been merged (the
	// last interval may still be pending).
	if merged < m.LogWrites*8/10 {
		t.Fatalf("merged %d of %d log pages; merge process lags too far", merged, m.LogWrites)
	}
}

func TestGlobalLogMergeRequiresGEMLog(t *testing.T) {
	params := testParams(1, CouplingGEM, false)
	params.GlobalLogMerge = true
	if err := params.Validate(); err == nil {
		t.Fatal("GlobalLogMerge without LogInGEM must be rejected")
	}
}
