package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"gemsim/internal/fault"
	"gemsim/internal/recovery"
	"gemsim/internal/sim"
)

// smallFailoverConfig shrinks the failover preset to test size: two
// nodes, a 14 s simulation with the crash at 5 s, and a 64-page buffer
// so even the disk-log redo phase finishes well inside the window. The
// arrival rate is halved because during the outage the single survivor
// carries the whole complex: at the default 100 TPS per node it would
// saturate and queueing delays would swamp the recovery phase times.
func smallFailoverConfig(coupling Coupling, logInGEM bool) Config {
	cfg := FailoverConfig(coupling, logInGEM, PresetOptions{
		Nodes:   2,
		Warmup:  2 * time.Second,
		Measure: 12 * time.Second,
		Seed:    1,
	})
	cfg.ArrivalRatePerNode = 50
	cfg.BufferPages = 64
	return cfg
}

// TestFaultRunDeterministic is the reproducibility guarantee for fault
// runs: the same seed and configuration — including a crash, random
// message loss and a disk stall — must yield byte-identical metrics.
func TestFaultRunDeterministic(t *testing.T) {
	for _, coupling := range []Coupling{CouplingGEM, CouplingPCL} {
		cfg := smallFailoverConfig(coupling, true)
		cfg.Faults.MessageLossProb = 0.002
		cfg.Faults.DiskStalls = []fault.DiskStall{
			{File: "ACCOUNT", At: 9 * time.Second, Duration: 500 * time.Millisecond},
		}
		run := func() []byte {
			rep, err := Run(cfg)
			if err != nil {
				t.Fatalf("%v: %v", coupling, err)
			}
			b, err := json.Marshal(rep.Metrics)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		a, b := run(), run()
		if !bytes.Equal(a, b) {
			t.Fatalf("%v: fault runs diverged:\n%s\n%s", coupling, a, b)
		}
	}
}

// TestFailoverRecoveryMeasured is the acceptance test of the failure
// subsystem: an injected crash completes with a measured recovery, the
// disturbance is visible in the response time, and keeping the log in
// non-volatile GEM beats disk-log recovery for both coupling modes. The
// measured phases are also cross-checked against the analytic estimates
// of the recovery package (same device model, so the shapes must
// agree).
func TestFailoverRecoveryMeasured(t *testing.T) {
	results := make(map[string]*Report)
	for _, sc := range failoverScenarios {
		rep, err := Run(smallFailoverConfig(sc.coupling, sc.logInGEM))
		if err != nil {
			t.Fatalf("%s: %v", sc.label, err)
		}
		m := &rep.Metrics
		if len(m.Failovers) != 1 {
			t.Fatalf("%s: failovers %d, want 1", sc.label, len(m.Failovers))
		}
		fs := m.Failovers[0]
		if fs.RecoveryDuration <= 0 || fs.PagesRedone == 0 || fs.LogPagesScanned == 0 {
			t.Fatalf("%s: empty recovery %+v", sc.label, fs)
		}
		if m.TxnsKilled == 0 {
			t.Fatalf("%s: no in-flight transactions killed by the crash", sc.label)
		}
		if m.MeanRTDuringRecovery <= m.MeanRTPreFailure {
			t.Fatalf("%s: RT during recovery %v not above pre-failure %v",
				sc.label, m.MeanRTDuringRecovery, m.MeanRTPreFailure)
		}
		results[sc.label] = rep
	}

	for _, coupling := range []string{"GEM", "PCL"} {
		disk := results[coupling+"/disk-log"].Metrics.Failovers[0]
		gem := results[coupling+"/GEM-log"].Metrics.Failovers[0]
		if gem.RecoveryDuration >= disk.RecoveryDuration {
			t.Errorf("%s: GEM-log recovery %v not faster than disk-log %v",
				coupling, gem.RecoveryDuration, disk.RecoveryDuration)
		}
		if gem.LogScan >= disk.LogScan {
			t.Errorf("%s: GEM-log scan %v not faster than disk-log scan %v",
				coupling, gem.LogScan, disk.LogScan)
		}
	}

	// Analytic cross-check: feed the measured crash-time workload into
	// the recovery estimator and require shape agreement. The simulation
	// adds queueing and CPU on top of pure device times, so the bounds
	// are generous, but a broken cost model (wrong device, wrong units)
	// lands far outside them.
	for _, sc := range failoverScenarios {
		fs := results[sc.label].Metrics.Failovers[0]
		params := recovery.DiskLogParams()
		if sc.logInGEM {
			params = recovery.GEMLogParams()
		}
		est := params.Estimate(recovery.Workload{
			LogPagesSinceCheckpoint: fs.LogPagesScanned,
			DirtyPages:              fs.PagesRedone,
			LoserTxns:               fs.TxnsKilled,
		})
		if r := ratio(fs.LogScan, est.LogScan); r < 0.5 || r > 8 {
			t.Errorf("%s: measured log scan %v vs analytic %v (ratio %.2f)",
				sc.label, fs.LogScan, est.LogScan, r)
		}
		if r := ratio(fs.Redo, est.Redo); r < 0.5 || r > 4 {
			t.Errorf("%s: measured redo %v vs analytic %v (ratio %.2f)",
				sc.label, fs.Redo, est.Redo, r)
		}
	}
}

func ratio(a, b time.Duration) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// TestFaultConfigValidation checks that invalid fault configurations
// are rejected up front instead of misbehaving mid-run.
func TestFaultConfigValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string // expected error substring, if pinned
	}{
		{"lock engine", func(c *Config) { c.Coupling = CouplingLockEngine; c.Force = true }, ""},
		{"invariants", func(c *Config) { c.CheckInvariants = true }, ""},
		{"loss prob", func(c *Config) { c.Faults.MessageLossProb = 1 }, ""},
		{"mtbf without mttr", func(c *Config) { c.Faults.MTBF = time.Minute }, "set together"},
		{"negative mtbf and mttr", func(c *Config) { c.Faults.MTBF, c.Faults.MTTR = -5*time.Second, -time.Second }, "must be positive"},
		{"negative mttr", func(c *Config) { c.Faults.MTBF, c.Faults.MTTR = 5*time.Second, -time.Second }, "must be positive"},
		{"negative mtbf", func(c *Config) { c.Faults.MTBF, c.Faults.MTTR = -5*time.Second, time.Second }, "must be positive"},
		{"negative timeout", func(c *Config) { c.Faults.LockWaitTimeout = -time.Second }, ""},
		{"negative workers", func(c *Config) { c.Faults.RecoveryWorkers = -1 }, "RecoveryWorkers"},
		{"bad reopen", func(c *Config) { c.Faults.Reopen = recovery.ReopenPolicy(7) }, "Reopen"},
		{"negative window", func(c *Config) { c.Faults.AvailabilityWindow = -time.Second }, "AvailabilityWindow"},
		{"crash with one node", func(c *Config) {
			c.Nodes = 1
			c.Faults.Crashes = []fault.NodeCrash{{Node: 0, At: time.Second, Repair: time.Second}}
		}, ""},
		{"overlapping crash windows", func(c *Config) {
			c.Faults.Crashes = []fault.NodeCrash{
				{Node: 0, At: time.Second, Repair: 2 * time.Second},
				{Node: 1, At: 2 * time.Second, Repair: time.Second},
			}
		}, ""},
	}
	for _, tc := range cases {
		cfg := DefaultDebitCreditConfig(2)
		cfg.Faults = &FaultConfig{}
		tc.mutate(&cfg)
		_, err := Run(cfg)
		if err == nil {
			t.Errorf("%s: expected an error", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestStalledCheckDiagnoses covers the stall diagnostic directly: a
// drained calendar with live parked processes must produce an error
// naming the stuck processes (and pointing at the lock-wait timeout
// when faults are off).
func TestStalledCheckDiagnoses(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	env.Spawn("wedged-waiter", func(p *sim.Proc) { p.Park() })
	if err := env.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultDebitCreditConfig(2)

	err := stalledCheck(env, &cfg)
	if err == nil {
		t.Fatal("expected a stall error")
	}
	for _, want := range []string{"stalled", "wedged-waiter", "LockWaitTimeout"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q misses %q", err, want)
		}
	}
	// With faults configured the hint would be misleading (a timeout is
	// already available) and is omitted.
	cfg.Faults = &FaultConfig{}
	if err := stalledCheck(env, &cfg); err == nil || strings.Contains(err.Error(), "LockWaitTimeout") {
		t.Errorf("fault-run stall error %v must omit the timeout hint", err)
	}

	healthy := sim.NewEnv()
	defer healthy.Stop()
	if err := stalledCheck(healthy, &cfg); err != nil {
		t.Fatalf("healthy env flagged as stalled: %v", err)
	}
}

// TestOverlappingRecoveriesRepairOnDemand crashes a second node while
// the first node's disk-log recovery is still replaying under
// incremental reopen. Each recovery keeps its own state, so the second
// must not cut the first one's on-demand page repairs short: node 1
// repairs about as many pages as when it fails alone. A first recovery
// whose state the second displaced would repair only the pages
// conflicted on before the second crash, under a quarter of them here.
func TestOverlappingRecoveriesRepairOnDemand(t *testing.T) {
	first := fault.NodeCrash{Node: 1, At: 4 * time.Second, Repair: 50 * time.Millisecond}
	second := fault.NodeCrash{Node: 2, At: 4100 * time.Millisecond, Repair: 50 * time.Millisecond}
	node1Repairs := func(coupling Coupling, crashes ...fault.NodeCrash) int64 {
		t.Helper()
		cfg := DefaultDebitCreditConfig(4)
		cfg.Coupling = coupling
		cfg.ArrivalRatePerNode = 50
		cfg.Warmup = 2 * time.Second
		cfg.Measure = 14 * time.Second
		cfg.Faults = &FaultConfig{Crashes: crashes}
		cfg.Faults.CheckpointInterval = 4 * time.Second
		cfg.Faults.Reopen = recovery.ReopenIncremental
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Metrics.Failovers) != len(crashes) {
			t.Fatalf("%v: %d of %d crashes recovered", coupling, len(rep.Metrics.Failovers), len(crashes))
		}
		for _, fs := range rep.Metrics.Failovers {
			if fs.Node == 1 {
				return fs.PagesRepairedOnDemand
			}
		}
		t.Fatalf("%v: no failover of node 1", coupling)
		return 0
	}
	for _, coupling := range []Coupling{CouplingGEM, CouplingPCL} {
		alone := node1Repairs(coupling, first)
		overlapped := node1Repairs(coupling, first, second)
		if alone == 0 {
			t.Fatalf("%v: node 1 alone repaired no page on demand", coupling)
		}
		if 4*overlapped < 3*alone {
			t.Errorf("%v: node 1 repaired %d pages on demand beside a second recovery, %d alone",
				coupling, overlapped, alone)
		}
	}
}
