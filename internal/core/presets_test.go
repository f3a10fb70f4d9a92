package core_test

import (
	"strings"
	"testing"
	"time"

	"gemsim/internal/attrib"
	"gemsim/internal/cc"
	"gemsim/internal/core"
	"gemsim/internal/report"
	"gemsim/internal/sweep"
)

// executePreset runs one preset at its quick windows and seed 1
// through the sweep engine, as `experiments -fig <id> -quick` does, and
// returns its table and the reports by row label. Any failed run fails
// the test.
func executePreset(t *testing.T, id string) (*report.Table, map[string]*core.Report) {
	t.Helper()
	presets, err := core.Presets(1, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range presets {
		if presets[i].ID != id {
			continue
		}
		runs := sweep.PresetRuns(&presets[i], 1)
		results, sum, err := sweep.Execute(runs, sweep.Engine{})
		if err != nil {
			t.Fatal(err)
		}
		if sum.Failed > 0 {
			t.Fatalf("%s: %d runs failed: %v", id, sum.Failed, sum.Failures)
		}
		reports := make(map[string]*core.Report, len(runs))
		for _, r := range runs {
			reports[r.Row] = results[r.Key].Report
		}
		return sweep.Tables(runs, results)[0].Table, reports
	}
	t.Fatalf("no preset %q", id)
	return nil, nil
}

// TestEnginesCrossover pins the headline result of the engine
// comparison: the protocol ranking inverts with contention, and the
// hybrid engine is never the wrong choice. The margins were checked to
// hold across seeds 1-3 at the quick windows; the test runs seed 1
// only to keep it fast.
func TestEnginesCrossover(t *testing.T) {
	_, reps := executePreset(t, "engines")
	tput := func(label string) float64 {
		rep, ok := reps[label]
		if !ok {
			t.Fatalf("missing report %q", label)
		}
		return rep.Metrics.Throughput
	}

	// Low contention: conflicts are rare, so the optimistic engines'
	// smaller metadata footprint (validate+publish vs three lock-service
	// bursts) buys throughput outright.
	if occ, tpl := tput("low/occ"), tput("low/2pl"); occ < 1.02*tpl {
		t.Errorf("low contention: OCC %.1f tps should beat 2PL %.1f tps by >2%%", occ, tpl)
	}
	if mvto, tpl := tput("low/mvto"), tput("low/2pl"); mvto < 1.02*tpl {
		t.Errorf("low contention: MV-TO %.1f tps should beat 2PL %.1f tps by >2%%", mvto, tpl)
	}

	// Concentrated hot spot: every transaction writes a hot branch page,
	// so optimistic engines redo a majority of their work while 2PL
	// merely queues on the short-held hot locks.
	if tpl, occ := tput("high/2pl"), tput("high/occ"); tpl < 1.2*occ {
		t.Errorf("high contention: 2PL %.1f tps should beat OCC %.1f tps by >20%%", tpl, occ)
	}
	if tpl, mvto := tput("high/2pl"), tput("high/mvto"); tpl < 1.2*mvto {
		t.Errorf("high contention: 2PL %.1f tps should beat MV-TO %.1f tps by >20%%", tpl, mvto)
	}

	// Heterogeneous Zipf pattern: the hybrid locks the hot set (no
	// restart storms) and validates the cold tail (no lock overhead), so
	// it beats both pure protocols.
	if had, tpl := tput("zipf/had"), tput("zipf/2pl"); had < 1.01*tpl {
		t.Errorf("zipf: HAD %.1f tps should beat 2PL %.1f tps by >1%%", had, tpl)
	}
	if had, occ := tput("zipf/had"), tput("zipf/occ"); had < 1.1*occ {
		t.Errorf("zipf: HAD %.1f tps should beat OCC %.1f tps by >10%%", had, occ)
	}
	if had, mvto := tput("zipf/had"), tput("zipf/mvto"); had < 1.1*mvto {
		t.Errorf("zipf: HAD %.1f tps should beat MV-TO %.1f tps by >10%%", had, mvto)
	}
}

// TestEnginesRestartAccounting checks that the abort/restart machinery
// is visible end-to-end in the comparison's metrics: optimistic engines
// restart under contention, the native 2PL rows never raise an engine
// abort, and the hybrid's hot-set routing keeps its restart share an
// order of magnitude below pure OCC's.
func TestEnginesRestartAccounting(t *testing.T) {
	_, reps := executePreset(t, "engines")
	for label, rep := range reps {
		m := rep.Metrics
		// Attempts admitted before the warmup stats reset commit after
		// it, so commits may exceed admitted by at most the closed
		// loop's in-flight population (80 terminals across two nodes).
		if m.Admitted+80 < m.Commits {
			t.Errorf("%s: admitted %d < commits %d beyond in-flight slack", label, m.Admitted, m.Commits)
		}
		if m.CCAborts > m.Restarts {
			t.Errorf("%s: engine aborts %d exceed restarts %d", label, m.CCAborts, m.Restarts)
		}
	}
	for _, sc := range []core.EngineScenario{core.ScenarioLow, core.ScenarioHigh, core.ScenarioZipf} {
		m := reps[string(sc)+"/2pl"].Metrics
		if m.CCAborts != 0 || m.CCValidations != 0 {
			t.Errorf("%s/2pl: native 2PL reported engine work (aborts %d, validations %d)",
				sc, m.CCAborts, m.CCValidations)
		}
		if m.CCEngine != cc.KindDefault.String() {
			t.Errorf("%s/2pl: engine name %q, want %q", sc, m.CCEngine, cc.KindDefault.String())
		}
	}
	occ := reps["high/occ"].Metrics
	if occ.Restarts == 0 || occ.CCAborts == 0 || occ.CCValidationFails == 0 {
		t.Errorf("high/occ: expected restart work, got restarts=%d ccAborts=%d valFails=%d",
			occ.Restarts, occ.CCAborts, occ.CCValidationFails)
	}
	occShare := float64(occ.Restarts) / float64(occ.Admitted)
	had := reps["high/had"].Metrics
	hadShare := float64(had.Restarts) / float64(had.Admitted)
	if hadShare > occShare/10 {
		t.Errorf("high: HAD restart share %.3f should be <1/10 of OCC's %.3f", hadShare, occShare)
	}
}

// TestRunAvailabilityIncrementalImprovesTTFT is the acceptance check
// of the availability experiment: for every regime and coupling mode,
// incremental reopen must strictly improve time-to-full-throughput
// over offline replay against the identical crash schedule.
func TestRunAvailabilityIncrementalImprovesTTFT(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full 8-scenario availability preset")
	}
	tbl, reports := executePreset(t, "availability")
	if len(reports) != 8 {
		t.Fatalf("got %d reports, want 8", len(reports))
	}
	ttft := func(label string) time.Duration {
		rep, ok := reports[label]
		if !ok {
			t.Fatalf("missing report %q", label)
		}
		m := &rep.Metrics
		if len(m.Failovers) != 1 {
			t.Fatalf("%s: %d failovers, want 1", label, len(m.Failovers))
		}
		fs := m.Failovers[0]
		if fs.TimeToFullThroughput <= 0 {
			t.Fatalf("%s: throughput never recovered: %+v", label, fs)
		}
		if m.P99Unavailability <= 0 {
			t.Fatalf("%s: no p99 unavailability measured", label)
		}
		return fs.TimeToFullThroughput
	}
	for _, regime := range []string{"calm", "harsh"} {
		for _, coupling := range []core.Coupling{core.CouplingGEM, core.CouplingPCL} {
			prefix := regime + "/" + coupling.String()
			off := ttft(prefix + "/offline")
			inc := ttft(prefix + "/incremental")
			if inc >= off {
				t.Errorf("%s: incremental TTFT %v not strictly below offline %v", prefix, inc, off)
			}
			if reports[prefix+"/incremental"].Metrics.Failovers[0].PagesRepairedOnDemand == 0 {
				t.Errorf("%s: incremental reopen performed no on-demand repairs", prefix)
			}
		}
	}
	rendered := tbl.Render()
	for _, want := range []string{"TTFT [ms]", "p99 unavail", "SLO [%]", "demand repairs"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("table missing column %q", want)
		}
	}
}

// TestPhasesSumToResponseTime: in every row of the engines preset the
// phase means sum to the mean response time. The phases partition each
// transaction's response time, so a window charged to two phases (the
// commit release and, inside it, an optimistic engine's publication
// burst) shows up here as phases summing past the response time.
func TestPhasesSumToResponseTime(t *testing.T) {
	_, reps := executePreset(t, "engines")
	if len(reps) != 12 {
		t.Fatalf("%d engines rows, want 12", len(reps))
	}
	for label, rep := range reps {
		b := rep.Metrics.Phases
		if b == nil {
			t.Fatalf("%s: no phase breakdown", label)
		}
		var sum time.Duration
		for p := attrib.Phase(0); p < attrib.NumPhases; p++ {
			sum += b.PhaseMean(p)
		}
		// Each phase mean truncates to the nanosecond.
		if diff := sum - b.MeanRT(); diff > time.Duration(attrib.NumPhases) || -diff > time.Duration(attrib.NumPhases) {
			t.Errorf("%s: phases sum to %v, mean response time %v", label, sum, b.MeanRT())
		}
	}
}
