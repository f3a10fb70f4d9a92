package core

import (
	"fmt"
	"time"

	"gemsim/internal/fault"
	"gemsim/internal/node"
)

// FailoverConfig builds one crash scenario of the failover experiment:
// a debit-credit complex at 100 TPS per node (default 4 nodes, windows
// 4s and 24s) in which node 1 fails a quarter into the measurement
// window and rejoins at the half, with the log either on disk or in
// non-volatile GEM. A disk-log recovery of a full dirty buffer takes
// several simulated seconds, so shrink Measure only together with the
// buffer or checkpoint interval.
func FailoverConfig(coupling Coupling, logInGEM bool, opts PresetOptions) Config {
	cfg := opts.config(4, 24*time.Second)
	cfg.Coupling = coupling
	cfg.LogInGEM = logInGEM
	cfg.Faults = &FaultConfig{
		Crashes: []fault.NodeCrash{{
			Node:   1,
			At:     cfg.Warmup + cfg.Measure/4,
			Repair: cfg.Measure / 4,
		}},
		// Frequent fuzzy checkpoints bound the log scanned at recovery
		// (and keep the scan phase off the checkpoint instant itself).
		RecoveryKnobs: node.RecoveryKnobs{CheckpointInterval: 4 * time.Second},
	}
	return cfg
}

// failoverQuick are the failover preset's short windows. They must
// still contain a complete disk-log recovery (several simulated seconds
// of log scan and redo), so they only trim the warm-up and the
// post-recovery tail.
var failoverQuick = PresetOptions{Warmup: 2 * time.Second, Measure: 20 * time.Second}

// failoverScenarios are the compared configurations: for both coupling
// modes, recovery driven by a disk-resident log versus a log kept in
// non-volatile GEM (the closely coupled advantage under failures).
var failoverScenarios = []struct {
	label    string
	coupling Coupling
	logInGEM bool
}{
	{"GEM/disk-log", CouplingGEM, false},
	{"GEM/GEM-log", CouplingGEM, true},
	{"PCL/disk-log", CouplingPCL, false},
	{"PCL/GEM-log", CouplingPCL, true},
}

// failoverPreset is the failover experiment: the same mid-run node
// crash under GEM locking and PCL, with the log on disk versus in
// non-volatile GEM. Each row reports the measured recovery (duration
// and phase breakdown), the disturbance (killed/retried transactions,
// lock timeouts) and the response time before, during and after the
// outage.
func failoverPreset(opts PresetOptions) Preset {
	p := Preset{
		ID:        "failover",
		Title:     "Failover: node crash mid-run, disk log vs GEM log recovery",
		Summary:   "node crash mid-run: disk-log vs GEM-log recovery",
		Measures:  "recovery time and degradation",
		RowHeader: "config",
		ValueLine: "recovery and degradation metrics",
		Columns: []string{
			"recovery [ms]", "logscan [ms]", "redo [ms]",
			"log pages", "redo pages",
			"killed", "retried", "timeouts",
			"RT pre [ms]", "RT crash [ms]", "RT post [ms]",
		},
		Extract: failoverRow,
		Suite:   true,
	}
	for _, sc := range failoverScenarios {
		p.Rows = append(p.Rows, PresetRow{sc.label, FailoverConfig(sc.coupling, sc.logInGEM, opts)})
	}
	return p
}

func failoverRow(rep *Report) ([]float64, error) {
	m := &rep.Metrics
	if len(m.Failovers) != 1 {
		return nil, fmt.Errorf("expected 1 recovered crash, got %d", len(m.Failovers))
	}
	fs := m.Failovers[0]
	return []float64{
		ms(fs.RecoveryDuration), ms(fs.LogScan), ms(fs.Redo),
		float64(fs.LogPagesScanned), float64(fs.PagesRedone),
		float64(m.TxnsKilled), float64(m.TxnsRetried), float64(m.LockTimeouts),
		ms(m.MeanRTPreFailure), ms(m.MeanRTDuringRecovery), ms(m.MeanRTPostRecovery),
	}, nil
}
