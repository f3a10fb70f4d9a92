package core

import (
	"fmt"
	"time"

	"gemsim/internal/fault"
	"gemsim/internal/node"
	"gemsim/internal/recovery"
	"gemsim/internal/rng"
)

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

// AvailabilityConfig builds one scenario of the availability
// experiment: a debit-credit complex (default 4 nodes, windows 4s and
// 24s) under a crash schedule drawn from an MTBF/MTTR regime,
// recovering from a disk-resident log (the painful case, where the
// reopen policy matters most) with parallel replay workers and the
// given reopen policy.
func AvailabilityConfig(coupling Coupling, reopen recovery.ReopenPolicy, crashes []fault.NodeCrash, opts PresetOptions) Config {
	cfg := opts.config(4, 24*time.Second)
	cfg.Coupling = coupling
	cfg.LogInGEM = false
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

// availabilityQuick are the availability preset's short windows. They
// must still contain at least one full crash and disk-log recovery
// cycle per regime, so they only trim the warm-up and part of the tail.
var availabilityQuick = PresetOptions{Warmup: 2 * time.Second, Measure: 16 * time.Second}

// availabilityPreset is the availability experiment: stochastic node
// crashes under two MTBF/MTTR regimes, for GEM locking and PCL, with
// the REDO replay either completing offline before reopen or running
// concurrently with readmitted transactions (incremental reopen with
// on-demand page repair). Each row reports throughput, the time until
// windowed throughput recrosses 95% of the pre-crash baseline (TTFT),
// the p99 per-window unavailability, SLO attainment, and the replay
// volume. The options' seed (default 1) is the base from which each
// regime draws its crash schedule and run seed, so the same seed
// produces the same crash schedule in every row of a regime.
func availabilityPreset(opts PresetOptions) (Preset, error) {
	p := Preset{
		ID:        "availability",
		Title:     "Availability: stochastic crashes, offline replay vs incremental reopen",
		Summary:   "stochastic MTBF/MTTR crashes: offline replay vs incremental reopen",
		Measures:  "TTFT, p99 unavailability, SLO attainment",
		RowHeader: "config",
		ValueLine: "availability and recovery metrics",
		Columns: []string{
			"tput [tps]", "crashes", "TTFT [ms]", "p99 unavail",
			"SLO [%]", "recovery [ms]", "redo pages", "demand repairs",
		},
		Extract: availabilityRow,
		Suite:   true,
	}
	base := opts.Seed
	if base == 0 {
		base = 1
	}
	nodes, warmup, measure := opts.resolve(4, 24*time.Second)
	for _, rg := range availabilityRegimes {
		seed, crashes, err := availabilitySchedule(base, rg.label, nodes, warmup, measure, rg.mtbf, rg.mttr)
		if err != nil {
			return Preset{}, err
		}
		rgOpts := opts
		rgOpts.Seed = seed
		for _, coupling := range []Coupling{CouplingGEM, CouplingPCL} {
			for _, reopen := range []recovery.ReopenPolicy{recovery.ReopenOffline, recovery.ReopenIncremental} {
				p.Rows = append(p.Rows, PresetRow{
					fmt.Sprintf("%s/%v/%s", rg.label, coupling, reopen),
					AvailabilityConfig(coupling, reopen, crashes, rgOpts),
				})
			}
		}
	}
	return p, nil
}

func availabilityRow(rep *Report) ([]float64, error) {
	m := &rep.Metrics
	if crashes := len(rep.Config.Faults.Crashes); len(m.Failovers) != crashes {
		return nil, fmt.Errorf("%d of %d crashes recovered in the window", len(m.Failovers), crashes)
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
		return nil, fmt.Errorf("throughput never recrossed the pre-crash baseline")
	}
	ttftMean /= time.Duration(ttftN)
	return []float64{
		m.Throughput, float64(len(m.Failovers)),
		ms(ttftMean), m.P99Unavailability,
		100 * m.SLOAttainment, ms(recMean),
		float64(redoPages), float64(repairs),
	}, nil
}
