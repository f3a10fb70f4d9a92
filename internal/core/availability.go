package core

import (
	"fmt"
	"time"

	"gemsim/internal/fault"
	"gemsim/internal/node"
	"gemsim/internal/recovery"
	"gemsim/internal/report"
	"gemsim/internal/rng"
)

// AvailabilityOptions scales the availability experiment.
type AvailabilityOptions struct {
	// Nodes is the complex size (default 4).
	Nodes int
	// Warmup and Measure override the simulation windows (defaults 4s
	// and 24s). Crashes are drawn stochastically from the regime's
	// MTBF/MTTR over the whole horizon, so shrinking Measure thins the
	// crash sample.
	Warmup  time.Duration
	Measure time.Duration
	// Seed overrides the run seed (default 1). The same seed produces
	// the same crash schedule in every scenario of a regime, so reopen
	// policies are compared against identical fault timelines.
	Seed int64
	// Progress, if non-nil, is called after each completed run.
	Progress func(label string, rep *Report)
	// Configure, if non-nil, adjusts each scenario's configuration
	// just before it runs (e.g. to attach per-run tracing outputs).
	Configure func(label string, cfg *Config)
}

// availabilityRegimes are the compared fault environments: a calm
// regime with rare failures and quick repair, and a harsh one failing
// more than twice as often with slower repair. Both are chosen so a
// default 28s horizon sees at least one full crash/recovery cycle.
var availabilityRegimes = []struct {
	label      string
	mtbf, mttr time.Duration
}{
	{"calm", 8 * time.Second, 1500 * time.Millisecond},
	{"harsh", 3500 * time.Millisecond, 800 * time.Millisecond},
}

// availabilityWorkers is the replay parallelism of every scenario; the
// reopen policy is the only variable between paired rows.
const availabilityWorkers = 4

// availabilitySpacing is the minimum distance between measured
// crashes (and from the last crash to the horizon): enough room for a
// parallel disk-log recovery plus the throughput ramp, so every
// measured crash recovers completely inside the run and paired reopen
// policies are compared over the identical crash set.
const availabilitySpacing = 9 * time.Second

// availabilitySchedule draws one regime's crash schedule: an MTBF/MTTR
// schedule from internal/fault, thinned to the first crash that is
// measurable — after a baseline has formed, and early enough that
// recovery and the ramp complete before the horizon. Seeds derived
// from (base, regime, attempt) are tried until the thinned schedule is
// non-empty. All scenarios of a regime share the schedule, so offline
// and incremental reopen face the identical fault timeline with
// byte-identical pre-crash state — the TTFT difference between paired
// rows is purely the post-crash recovery dynamics.
func availabilitySchedule(base int64, regime string, nodes int, warmup, measure, mtbf, mttr time.Duration) (int64, []fault.NodeCrash, error) {
	horizon := warmup + measure
	lo, hi := warmup+2*time.Second, horizon-availabilitySpacing
	for attempt := 0; attempt < 256; attempt++ {
		seed := rng.DeriveSeed(base, fmt.Sprintf("availability/%s/%d", regime, attempt))
		crashes, err := fault.GenerateCrashes(seed, nodes, horizon, mtbf, mttr)
		if err != nil {
			return 0, nil, err
		}
		for _, c := range crashes {
			if c.At >= lo && c.At <= hi {
				return seed, []fault.NodeCrash{c}, nil
			}
		}
	}
	return 0, nil, fmt.Errorf("availability %s: no seed derived from %d yields a crash inside [%v,%v] (horizon too short for MTBF %v?)",
		regime, base, lo, hi, mtbf)
}

// availabilityDims resolves the experiment dimensions with their
// defaults applied.
func availabilityDims(opts AvailabilityOptions) (nodes int, warmup, measure time.Duration) {
	nodes = opts.Nodes
	if nodes < 2 {
		nodes = 4
	}
	warmup = opts.Warmup
	if warmup <= 0 {
		warmup = 4 * time.Second
	}
	measure = opts.Measure
	if measure <= 0 {
		measure = 24 * time.Second
	}
	return nodes, warmup, measure
}

// AvailabilityConfig builds one scenario of the availability
// experiment: a debit-credit complex under a crash schedule drawn from
// an MTBF/MTTR regime, recovering from a disk-resident log (the
// painful case, where the reopen policy matters most) with parallel
// replay workers and the given reopen policy.
func AvailabilityConfig(coupling Coupling, reopen recovery.ReopenPolicy, crashes []fault.NodeCrash, opts AvailabilityOptions) Config {
	nodes, warmup, measure := availabilityDims(opts)
	cfg := DefaultDebitCreditConfig(nodes)
	cfg.Coupling = coupling
	cfg.LogInGEM = false
	cfg.Warmup = warmup
	cfg.Measure = measure
	if opts.Seed != 0 {
		cfg.Seed = opts.Seed
	}
	cfg.Faults = &FaultConfig{
		Crashes: crashes,
		RecoveryKnobs: node.RecoveryKnobs{
			// Tight fuzzy checkpoints bound the per-crash REDO backlog,
			// so every recovery fits between two spaced crashes.
			CheckpointInterval: 2 * time.Second,
			Reopen:             reopen,
			RecoveryWorkers:    availabilityWorkers,
			// Fine sampling windows resolve TTFT differences well below
			// the default quantum.
			AvailabilityWindow: 100 * time.Millisecond,
		},
	}
	return cfg
}

// availabilityScenario is one table row: a fault regime, a coupling
// mode and a reopen policy.
type availabilityScenario struct {
	label    string
	regime   int
	coupling Coupling
	reopen   recovery.ReopenPolicy
}

// availabilityScenarios enumerates the table rows: for each fault
// regime and coupling mode, offline replay versus incremental reopen.
var availabilityScenarios = func() []availabilityScenario {
	var out []availabilityScenario
	for ri := range availabilityRegimes {
		for _, coupling := range []Coupling{CouplingGEM, CouplingPCL} {
			for _, reopen := range []recovery.ReopenPolicy{recovery.ReopenOffline, recovery.ReopenIncremental} {
				out = append(out, availabilityScenario{
					label:    fmt.Sprintf("%s/%v/%s", availabilityRegimes[ri].label, coupling, reopen),
					regime:   ri,
					coupling: coupling,
					reopen:   reopen,
				})
			}
		}
	}
	return out
}()

// RunAvailability executes the availability experiment: stochastic
// node crashes under two MTBF/MTTR regimes, for GEM locking and PCL,
// with the REDO replay either completing offline before reopen or
// running concurrently with readmitted transactions (incremental
// reopen with on-demand page repair). Each row reports throughput,
// the time until windowed throughput recrosses 95% of the pre-crash
// baseline (TTFT), the p99 per-window unavailability, SLO attainment,
// and the replay volume. The per-label reports are returned alongside
// the table.
func RunAvailability(opts AvailabilityOptions) (*report.Table, map[string]*Report, error) {
	tbl := report.NewTable(
		"Availability: stochastic crashes, offline replay vs incremental reopen",
		"config", "availability and recovery metrics", nil,
		[]string{
			"tput [tps]", "crashes", "TTFT [ms]", "p99 unavail",
			"SLO [%]", "recovery [ms]", "redo pages", "demand repairs",
		},
	)
	base := opts.Seed
	if base == 0 {
		base = 1
	}
	nodes, warmup, measure := availabilityDims(opts)
	regimeSeeds := make([]int64, len(availabilityRegimes))
	regimeCrashes := make([][]fault.NodeCrash, len(availabilityRegimes))
	for ri, rg := range availabilityRegimes {
		seed, crashes, err := availabilitySchedule(base, rg.label, nodes, warmup, measure, rg.mtbf, rg.mttr)
		if err != nil {
			return nil, nil, err
		}
		regimeSeeds[ri] = seed
		regimeCrashes[ri] = crashes
	}
	reports := make(map[string]*Report, len(availabilityScenarios))
	for _, sc := range availabilityScenarios {
		scOpts := opts
		scOpts.Seed = regimeSeeds[sc.regime]
		cfg := AvailabilityConfig(sc.coupling, sc.reopen, regimeCrashes[sc.regime], scOpts)
		if opts.Configure != nil {
			opts.Configure(sc.label, &cfg)
		}
		rep, err := Run(cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("availability %s: %w", sc.label, err)
		}
		m := &rep.Metrics
		if len(m.Failovers) != len(regimeCrashes[sc.regime]) {
			return nil, nil, fmt.Errorf("availability %s: %d of %d crashes recovered in the window",
				sc.label, len(m.Failovers), len(regimeCrashes[sc.regime]))
		}
		var recMean, ttftMean time.Duration
		var redoPages, repairs int64
		ttftN := 0
		for _, fs := range m.Failovers {
			recMean += fs.RecoveryDuration
			redoPages += fs.PagesRedone
			repairs += fs.PagesRepairedOnDemand
			if fs.TimeToFullThroughput > 0 {
				ttftMean += fs.TimeToFullThroughput
				ttftN++
			}
		}
		recMean /= time.Duration(len(m.Failovers))
		if ttftN == 0 {
			return nil, nil, fmt.Errorf("availability %s: throughput never recrossed the pre-crash baseline", sc.label)
		}
		ttftMean /= time.Duration(ttftN)
		tbl.AddRow(sc.label,
			m.Throughput, float64(len(m.Failovers)),
			ms(ttftMean), m.P99Unavailability,
			100*m.SLOAttainment, ms(recMean),
			float64(redoPages), float64(repairs),
		)
		reports[sc.label] = rep
		if opts.Progress != nil {
			opts.Progress(sc.label, rep)
		}
	}
	return tbl, reports, nil
}
