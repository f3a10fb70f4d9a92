package node

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"gemsim/internal/model"
	"gemsim/internal/recovery"
	"gemsim/internal/sim"
	"gemsim/internal/trace"
)

// reopenParams arms the replay engine on top of the fault test
// parameters.
func reopenParams(nodes int, coupling Coupling, policy recovery.ReopenPolicy, workers int) Params {
	p := faultParams(nodes, coupling)
	p.Reopen = policy
	p.RecoveryWorkers = workers
	return p
}

// replayCase is one coupling mode and replay width of the engine tests.
type replayCase struct {
	coupling Coupling
	workers  int
}

func (c replayCase) String() string { return fmt.Sprintf("%v/workers=%d", c.coupling, c.workers) }

// replayCases covers both coupling modes with the coordinator replaying
// alone and with the given number of parallel workers.
func replayCases(workers int) []replayCase {
	var cases []replayCase
	for _, coupling := range []Coupling{CouplingGEM, CouplingPCL} {
		for _, w := range []int{1, workers} {
			cases = append(cases, replayCase{coupling, w})
		}
	}
	return cases
}

// TestIncrementalReopenInvariants crashes a node under incremental
// reopen, with the coordinator replaying alone and with parallel
// replay workers, and checks the two safety invariants of the engine
// for both coupling modes:
//
//  1. no transaction ever observes an unredone page — every page
//     access behind a released fence must find the page replayed
//     (an on-demand repair span was emitted for it first);
//  2. replay completes exactly once per page even when replay workers
//     and on-demand repairs race for the same backlog.
func TestIncrementalReopenInvariants(t *testing.T) {
	for _, tc := range replayCases(4) {
		gen := &scriptGen{db: testDB(), txns: []model.Txn{
			{Type: 0, Refs: []model.Ref{{Page: pgID(1), Write: true}, {Page: pgID(2)}}},
			{Type: 1, Refs: []model.Ref{{Page: pgID(1), Write: true}, {Page: pgID(3), Write: true}}},
			{Type: 2, Refs: []model.Ref{{Page: pgID(2), Write: true}, {Page: pgID(4), Write: true}}},
		}}
		params := reopenParams(2, tc.coupling, recovery.ReopenIncremental, tc.workers)
		var buf strings.Builder
		params.Tracer = trace.New(&buf, trace.JSONL)
		env := sim.NewEnv()
		sys, err := NewSystem(env, params, gen, typeRouter{2}, modGLA{2})
		if err != nil {
			t.Fatal(err)
		}

		// Invariant 1: a transaction access on a backlog page must find
		// it replayed (the fence releases only after redoOnePage).
		violations := 0
		sys.pageObserver = func(pg model.PageID) {
			for _, rec := range sys.recs {
				if rec.replay.Unredone(pg) {
					violations++
				}
			}
		}
		env.After(time.Second, func() { sys.CrashNode(1) })
		env.After(2500*time.Millisecond, func() { sys.RepairNode(1) })
		sys.Start(30)
		sys.ResetStats()
		if err := env.Run(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		m := sys.Snapshot()
		if err := params.Tracer.Close(); err != nil {
			t.Fatal(err)
		}
		env.Stop()

		if violations > 0 {
			t.Fatalf("%s: %d transaction accesses observed an unredone page", tc, violations)
		}
		if len(m.Failovers) != 1 {
			t.Fatalf("%s: failovers %d, want 1", tc, len(m.Failovers))
		}
		fs := m.Failovers[0]
		if fs.Workers != tc.workers {
			t.Fatalf("%s: workers %d, want %d", tc, fs.Workers, tc.workers)
		}
		// Incremental reopen readmits before replay completes.
		if fs.ReopenAt >= fs.RecoveredAt {
			t.Fatalf("%s: reopen at %v not before recovery end %v", tc, fs.ReopenAt, fs.RecoveredAt)
		}
		if m.Commits < 100 {
			t.Fatalf("%s: commits %d, want >= 100 across the outage", tc, m.Commits)
		}

		// Invariant 2, trace form: every repaired page shows exactly one
		// page-repair span; the backlog total matches PagesRedone.
		tr := buf.String()
		repairs := strings.Count(tr, `"page-repair"`)
		if int64(repairs) != fs.PagesRepairedOnDemand {
			t.Fatalf("%s: %d page-repair spans, stats say %d", tc, repairs, fs.PagesRepairedOnDemand)
		}
		seen := map[string]int{}
		for _, line := range strings.Split(tr, "\n") {
			if !strings.Contains(line, `"page-repair"`) {
				continue
			}
			i := strings.Index(line, "page=")
			if i < 0 {
				t.Fatalf("%s: page-repair span without page arg: %s", tc, line)
			}
			page := strings.TrimSuffix(line[i:], `"}`)
			seen[page]++
		}
		for page, count := range seen {
			if count != 1 {
				t.Fatalf("%s: page %s repaired %d times, want exactly once", tc, page, count)
			}
		}
		if !strings.Contains(tr, `"reopen"`) {
			t.Fatalf("%s: no reopen span emitted", tc)
		}
	}
}

// TestParallelReplayExactlyOnce runs the engine with offline reopen,
// one worker and several: the backlog must replay exactly once per page
// (PagesRedone matches the recorded backlog; no on-demand repairs in
// offline mode) and recovery must still complete.
func TestParallelReplayExactlyOnce(t *testing.T) {
	for _, tc := range replayCases(3) {
		gen := &scriptGen{db: testDB(), txns: []model.Txn{
			{Type: 0, Refs: []model.Ref{{Page: pgID(1), Write: true}, {Page: pgID(2)}}},
			{Type: 1, Refs: []model.Ref{{Page: pgID(1), Write: true}, {Page: pgID(3), Write: true}}},
		}}
		params := reopenParams(2, tc.coupling, recovery.ReopenOffline, tc.workers)
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
			t.Fatalf("%s: failovers %d, want 1", tc, len(m.Failovers))
		}
		fs := m.Failovers[0]
		if fs.PagesRepairedOnDemand != 0 {
			t.Fatalf("%s: %d on-demand repairs under offline reopen, want 0", tc, fs.PagesRepairedOnDemand)
		}
		if fs.ReopenAt != fs.RecoveredAt {
			t.Fatalf("%s: offline reopen at %v must equal recovery end %v", tc, fs.ReopenAt, fs.RecoveredAt)
		}
		if fs.RecoveryDuration <= 0 {
			t.Fatalf("%s: recovery never completed: %+v", tc, fs)
		}
		if m.Commits < 100 {
			t.Fatalf("%s: commits %d, want >= 100", tc, m.Commits)
		}
	}
}

// TestAvailabilityTrackerMeasuresTTFT checks the windowed availability
// metrics: a crash must yield a positive time-to-full-throughput
// against a positive pre-crash baseline, SLO attainment strictly
// between 0 and 1 (some windows degraded, not all), and a positive
// p99 unavailability.
func TestAvailabilityTrackerMeasuresTTFT(t *testing.T) {
	gen := &scriptGen{db: testDB(), txns: []model.Txn{
		{Type: 0, Refs: []model.Ref{{Page: pgID(1), Write: true}, {Page: pgID(2)}}},
		{Type: 1, Refs: []model.Ref{{Page: pgID(1), Write: true}, {Page: pgID(3)}}},
	}}
	params := faultParams(2, CouplingGEM)
	params.AvailabilityWindow = 100 * time.Millisecond
	env := sim.NewEnv()
	defer env.Stop()
	sys, err := NewSystem(env, params, gen, typeRouter{2}, modGLA{2})
	if err != nil {
		t.Fatal(err)
	}
	env.After(2*time.Second, func() { sys.CrashNode(1) })
	env.After(4*time.Second, func() { sys.RepairNode(1) })
	sys.Start(30)
	sys.ResetStats()
	if err := env.Run(6 * time.Second); err != nil {
		t.Fatal(err)
	}
	m := sys.Snapshot()
	if len(m.Failovers) != 1 {
		t.Fatalf("failovers %d, want 1", len(m.Failovers))
	}
	fs := m.Failovers[0]
	if fs.BaselineTput <= 0 {
		t.Fatalf("no pre-crash baseline measured: %+v", fs)
	}
	if fs.TimeToFullThroughput <= 0 {
		t.Fatalf("throughput never recovered: %+v", fs)
	}
	if fs.TimeToFullThroughput < fs.DetectAt-fs.CrashAt {
		t.Fatalf("TTFT %v shorter than the detection delay %v", fs.TimeToFullThroughput, fs.DetectAt-fs.CrashAt)
	}
	if m.MeanTimeToFullThroughput != fs.TimeToFullThroughput {
		t.Fatalf("mean TTFT %v != single failover TTFT %v", m.MeanTimeToFullThroughput, fs.TimeToFullThroughput)
	}
	if m.AvailabilityWindows == 0 {
		t.Fatal("no availability windows measured")
	}
	if m.SLOAttainment <= 0 || m.SLOAttainment >= 1 {
		t.Fatalf("SLO attainment %v, want strictly between 0 and 1 across a crash", m.SLOAttainment)
	}
	if m.P99Unavailability <= 0 {
		t.Fatalf("p99 unavailability %v, want > 0 across a crash", m.P99Unavailability)
	}
}
