package core

import (
	"fmt"
	"time"

	"gemsim/internal/fault"
	"gemsim/internal/node"
	"gemsim/internal/report"
)

// FailoverOptions scales the failover experiment.
type FailoverOptions struct {
	// Nodes is the complex size (default 4).
	Nodes int
	// Warmup and Measure override the simulation windows (defaults 4s
	// and 24s). The crash is placed a quarter into the measurement
	// window and the node rejoins at the half; a disk-log recovery of
	// a full dirty buffer takes several simulated seconds, so shrink
	// Measure only together with the buffer or checkpoint interval.
	Warmup  time.Duration
	Measure time.Duration
	// Seed overrides the run seed (default 1).
	Seed int64
	// Progress, if non-nil, is called after each completed run.
	Progress func(label string, rep *Report)
	// Configure, if non-nil, adjusts each scenario's configuration
	// just before it runs (e.g. to attach per-run tracing outputs).
	Configure func(label string, cfg *Config)
}

// FailoverConfig builds one crash scenario of the failover experiment:
// a debit-credit complex at 100 TPS per node in which node 1 fails a
// quarter into the measurement window and rejoins at the half, with
// the log either on disk or in non-volatile GEM.
func FailoverConfig(coupling Coupling, logInGEM bool, opts FailoverOptions) Config {
	nodes := opts.Nodes
	if nodes < 2 {
		nodes = 4
	}
	cfg := DefaultDebitCreditConfig(nodes)
	cfg.Coupling = coupling
	cfg.LogInGEM = logInGEM
	if opts.Warmup > 0 {
		cfg.Warmup = opts.Warmup
	} else {
		cfg.Warmup = 4 * time.Second
	}
	if opts.Measure > 0 {
		cfg.Measure = opts.Measure
	} else {
		cfg.Measure = 24 * time.Second
	}
	if opts.Seed != 0 {
		cfg.Seed = opts.Seed
	}
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

// RunFailover executes the failover experiment: the same mid-run node
// crash under GEM locking and PCL, with the log on disk versus in
// non-volatile GEM. Each row reports the measured recovery (duration
// and phase breakdown), the disturbance (killed/retried transactions,
// lock timeouts) and the response time before, during and after the
// outage. The per-label reports are returned alongside the table.
func RunFailover(opts FailoverOptions) (*report.Table, map[string]*Report, error) {
	tbl := report.NewTable(
		"Failover: node crash mid-run, disk log vs GEM log recovery",
		"config", "recovery and degradation metrics", nil,
		[]string{
			"recovery [ms]", "logscan [ms]", "redo [ms]",
			"log pages", "redo pages",
			"killed", "retried", "timeouts",
			"RT pre [ms]", "RT crash [ms]", "RT post [ms]",
		},
	)
	reports := make(map[string]*Report, len(failoverScenarios))
	for _, sc := range failoverScenarios {
		cfg := FailoverConfig(sc.coupling, sc.logInGEM, opts)
		if opts.Configure != nil {
			opts.Configure(sc.label, &cfg)
		}
		rep, err := Run(cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("failover %s: %w", sc.label, err)
		}
		m := &rep.Metrics
		if len(m.Failovers) != 1 {
			return nil, nil, fmt.Errorf("failover %s: expected 1 recovered crash, got %d", sc.label, len(m.Failovers))
		}
		fs := m.Failovers[0]
		tbl.AddRow(sc.label,
			ms(fs.RecoveryDuration), ms(fs.LogScan), ms(fs.Redo),
			float64(fs.LogPagesScanned), float64(fs.PagesRedone),
			float64(m.TxnsKilled), float64(m.TxnsRetried), float64(m.LockTimeouts),
			ms(m.MeanRTPreFailure), ms(m.MeanRTDuringRecovery), ms(m.MeanRTPostRecovery),
		)
		reports[sc.label] = rep
		if opts.Progress != nil {
			opts.Progress(sc.label, rep)
		}
	}
	return tbl, reports, nil
}

// ms converts a duration to float milliseconds for table cells.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
