package core

import (
	"time"

	"gemsim/internal/node"
	"gemsim/internal/workload"
)

// AdaptiveConfig builds one scenario of the adaptive load control
// experiment: a debit-credit complex (default 4 nodes, windows 4s and
// 24s) under a strongly skewed branch popularity (Zipf theta 0.8) whose
// hot spot rotates to the far side of the branch space halfway into the
// measurement window. With adaptive set, the closed-loop controller
// (feedback admission plus periodic re-routing, and GLA migration under
// PCL) manages the complex; otherwise the static Table 4.1 allocation
// faces the same workload.
func AdaptiveConfig(coupling Coupling, adaptive bool, opts PresetOptions) Config {
	cfg := opts.config(4, 24*time.Second)
	cfg.Coupling = coupling
	dc := workload.DefaultDebitCreditParams(cfg.ArrivalRatePerNode * float64(cfg.Nodes))
	dc.Skew = &workload.Skew{
		BranchTheta:  0.8,
		AccountTheta: 0.4,
		Drift: []workload.DriftStep{
			{At: cfg.Warmup + cfg.Measure/2, Rotate: 0.5},
		},
	}
	cfg.Workload.DebitCredit = &dc
	if adaptive {
		cfg.Control = node.DefaultControlConfig()
	}
	return cfg
}

// adaptiveQuick are the adaptive preset's short windows. They must
// still contain the mid-run drift step plus a few controller periods on
// either side of it.
var adaptiveQuick = PresetOptions{Warmup: 2 * time.Second, Measure: 10 * time.Second}

// adaptiveScenarios are the compared configurations: static allocation
// versus the closed-loop controller, for both coupling modes, under the
// same skewed and drifting workload.
var adaptiveScenarios = []struct {
	label    string
	coupling Coupling
	adaptive bool
}{
	{"GEM/static", CouplingGEM, false},
	{"GEM/adaptive", CouplingGEM, true},
	{"PCL/static", CouplingPCL, false},
	{"PCL/adaptive", CouplingPCL, true},
}

// adaptivePreset is the adaptive load control experiment: a skewed
// debit-credit workload whose hot spot drifts mid-run, handled by the
// static allocation versus the closed-loop controller, under GEM
// locking and PCL. Each row reports throughput, response time (mean and
// p95), aborts, and the controller's action counts.
func adaptivePreset(opts PresetOptions) Preset {
	p := Preset{
		ID:        "adaptive",
		Title:     "Adaptive load control: skewed drifting workload, static vs controlled",
		Summary:   "skewed drifting workload: static allocation vs closed-loop load control",
		Measures:  "throughput, RT, controller actions",
		RowHeader: "config",
		ValueLine: "throughput and response time under skew and drift",
		Columns: []string{
			"tput [tps]", "RT [ms]", "p95 RT [ms]", "aborts",
			"throttle", "probe", "reroute", "migrate",
		},
		Extract: adaptiveRow,
		Suite:   true,
	}
	for _, sc := range adaptiveScenarios {
		p.Rows = append(p.Rows, PresetRow{sc.label, AdaptiveConfig(sc.coupling, sc.adaptive, opts)})
	}
	return p
}

func adaptiveRow(rep *Report) ([]float64, error) {
	m := &rep.Metrics
	return []float64{
		m.Throughput, ms(m.MeanResponseTime), ms(m.P95ResponseTime),
		float64(m.Aborts),
		float64(m.CtlThrottles), float64(m.CtlProbes),
		float64(m.CtlReroutes), float64(m.CtlMigrations),
	}, nil
}
