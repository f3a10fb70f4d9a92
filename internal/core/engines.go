package core

import (
	"time"

	"gemsim/internal/attrib"
	"gemsim/internal/cc"
	"gemsim/internal/node"
	"gemsim/internal/workload"
)

// EngineScenario names one contention level of the engine comparison.
type EngineScenario string

const (
	// ScenarioLow is the uniform Table 4.1 reference string: conflicts
	// are rare, so protocol overhead decides the ranking.
	ScenarioLow EngineScenario = "low"
	// ScenarioHigh concentrates 95% of the load on 2% of the branches:
	// every transaction writes a hot branch page, so an optimistic
	// engine restarts (and redoes) a large share of its work while 2PL
	// merely waits on the short-held hot locks.
	ScenarioHigh EngineScenario = "high"
	// ScenarioZipf is the heterogeneous access pattern of [Th93]: a
	// Zipf-skewed branch popularity with an explicit hot-spot set and
	// skewed account selection. The hybrid engine locks the hot set and
	// runs the cold tail optimistically.
	ScenarioZipf EngineScenario = "zipf"
)

// engineScenarios is the row order of the comparison table.
var engineScenarios = []EngineScenario{ScenarioLow, ScenarioHigh, ScenarioZipf}

// engineKinds is the engine order within each scenario.
var engineKinds = []cc.Kind{cc.KindDefault, cc.KindMVTO, cc.KindOCC, cc.KindHAD}

// EnginesConfig builds one cell of the engine comparison: a closed-loop
// debit-credit complex (default 2 nodes, windows 4s and 16s) under GEM
// coupling and NOFORCE,
// running the given engine against the given contention scenario. The
// lock-handling pathlength is raised to 40000 instructions per request
// (a heavyweight lock manager) so the protocols' different metadata
// footprints — three lock-service bursts per transaction under 2PL
// versus one validation plus one publish burst under OCC — are visible
// in the CPU-bound closed-loop throughput.
func EnginesConfig(engine cc.Kind, scenario EngineScenario, opts PresetOptions) Config {
	cfg := opts.config(2, 16*time.Second)
	cfg.CC = engine
	cfg.ClosedLoop = &ClosedLoopConfig{TerminalsPerNode: 40, ThinkTime: 150 * time.Millisecond}
	dc := workload.DefaultDebitCreditParams(cfg.ArrivalRatePerNode * float64(cfg.Nodes))
	switch scenario {
	case ScenarioHigh:
		dc.Skew = &workload.Skew{HotFraction: 0.02, HotProb: 0.95}
	case ScenarioZipf:
		dc.Skew = &workload.Skew{
			BranchTheta:  0.4,
			AccountTheta: 0.4,
			HotFraction:  0.02,
			HotProb:      0.3,
		}
	}
	cfg.Workload.DebitCredit = &dc
	cfg.Tune = func(p *node.Params) { p.LockInstr = 40000 }
	return cfg
}

// enginesQuick are the engine comparison's short windows. They must
// still accumulate enough restarts per cell for the crossover to be
// visible above run-to-run noise.
var enginesQuick = PresetOptions{Warmup: 2 * time.Second, Measure: 8 * time.Second}

// enginesPreset is the concurrency-control engine comparison: the four
// engines (coupling-native 2PL, MV-TO, OCC, HAD) against three
// contention levels of the closed-loop debit-credit workload. The
// expected crossover: OCC leads under low contention (least metadata
// work per transaction), 2PL leads under a concentrated hot spot
// (waits are cheaper than whole-transaction restarts), and the hybrid
// engine matches the best of both under the Zipf-skewed heterogeneous
// pattern. Each row reports throughput, response time, the restart
// share of admitted attempts, and the engine's validation counts.
func enginesPreset(opts PresetOptions) Preset {
	p := Preset{
		ID:        "engines",
		Title:     "Concurrency-control engines: 2PL vs MV-TO vs OCC vs HAD across contention levels",
		Summary:   "concurrency-control engines: 2PL vs MV-TO vs OCC vs HAD across contention levels",
		Measures:  "throughput, restarts, validation work",
		RowHeader: "scenario/engine",
		ValueLine: "throughput and restart work by engine and contention",
		Columns: []string{
			"tput [tps]", "RT [ms]", "p95 RT [ms]", "restart%",
			"cc aborts", "validations", "val fails", "cc RT%",
		},
		Extract: enginesRow,
	}
	for _, sc := range engineScenarios {
		for _, eng := range engineKinds {
			p.Rows = append(p.Rows, PresetRow{string(sc) + "/" + eng.String(), EnginesConfig(eng, sc, opts)})
		}
	}
	return p
}

func enginesRow(rep *Report) ([]float64, error) {
	m := &rep.Metrics
	restartShare := 0.0
	if m.Admitted > 0 {
		restartShare = 100 * float64(m.Restarts) / float64(m.Admitted)
	}
	ccShare := 0.0
	if m.Attribution != nil {
		ccShare = 100 * m.Attribution.Share(attrib.ResCC)
	}
	return []float64{
		m.Throughput, ms(m.MeanResponseTime), ms(m.P95ResponseTime),
		restartShare, float64(m.CCAborts),
		float64(m.CCValidations), float64(m.CCValidationFails),
		ccShare,
	}, nil
}
