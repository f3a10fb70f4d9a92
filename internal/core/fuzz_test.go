package core

// Coherency fuzzing: run many small random configurations with the
// oracle enabled. Any protocol hole — a stale page access, a stale
// storage read, a regressing page version — panics inside the
// simulation and fails the run.

import (
	"fmt"
	"testing"
	"time"

	"gemsim/internal/model"
	"gemsim/internal/workload"
)

func TestCoherencyFuzzDebitCredit(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz sweep")
	}
	couplings := []Coupling{CouplingGEM, CouplingPCL, CouplingLockEngine}
	media := []model.Medium{model.MediumDisk, model.MediumGEM, model.MediumDiskCacheNV,
		model.MediumDiskCacheVolatile, model.MediumGEMWriteBuffer}
	id := 0
	for _, coupling := range couplings {
		for _, force := range []bool{false, true} {
			if coupling == CouplingLockEngine && !force {
				continue
			}
			for _, routing := range []Routing{RoutingRandom, RoutingAffinity} {
				id++
				id := id
				coupling, force, routing := coupling, force, routing
				t.Run(fmt.Sprintf("%v-%v-%v", coupling, force, routing), func(t *testing.T) {
					t.Parallel()
					cfg := DefaultDebitCreditConfig(3)
					cfg.Coupling = coupling
					cfg.Force = force
					cfg.Routing = routing
					cfg.BufferPages = 64 // tiny buffer: heavy replacement traffic
					cfg.FileMedium = map[string]model.Medium{
						"BRANCH/TELLER": media[id%len(media)],
					}
					cfg.Warmup = 500 * time.Millisecond
					cfg.Measure = 3 * time.Second
					cfg.Seed = int64(1000 + id)
					cfg.CheckInvariants = true
					rep, err := Run(cfg)
					if err != nil {
						t.Fatalf("coherency violation or crash: %v", err)
					}
					if rep.Metrics.Commits == 0 {
						t.Fatal("no progress")
					}
				})
			}
		}
	}
}

func TestCoherencyFuzzTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz sweep")
	}
	params := workload.DefaultTraceGenParams(5)
	params.Transactions = 2500
	params.TotalPages = 6000
	params.AdHocTxns = 2
	params.LargestRefs = 800
	trace, err := workload.GenerateTrace(params)
	if err != nil {
		t.Fatal(err)
	}
	for _, coupling := range []Coupling{CouplingGEM, CouplingPCL} {
		for seed := int64(1); seed <= 3; seed++ {
			coupling, seed := coupling, seed
			t.Run(fmt.Sprintf("%v-seed%d", coupling, seed), func(t *testing.T) {
				t.Parallel()
				cfg := DefaultTraceConfig(3, trace)
				cfg.Coupling = coupling
				cfg.Routing = RoutingRandom
				cfg.BufferPages = 128 // heavy replacement + transfer traffic
				cfg.Warmup = time.Second
				cfg.Measure = 4 * time.Second
				cfg.Seed = seed
				cfg.CheckInvariants = true
				rep, err := Run(cfg)
				if err != nil {
					t.Fatalf("coherency violation or crash: %v", err)
				}
				if rep.Metrics.Commits == 0 {
					t.Fatal("no progress")
				}
			})
		}
	}
}

// TestCoherencyFuzzExtensions drives the GEM-transport and page
// exchange extensions under the oracle.
func TestCoherencyFuzzExtensions(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz sweep")
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"gem-messaging", func(c *Config) { c.Coupling = CouplingPCL; c.GEMMessaging = true }},
		{"gem-page-transfer", func(c *Config) { c.GEMPageTransfer = true }},
		{"log-merge", func(c *Config) { c.LogInGEM = true; c.GlobalLogMerge = true }},
		{"closed-loop", func(c *Config) {
			c.ClosedLoop = &ClosedLoopConfig{TerminalsPerNode: 16, ThinkTime: 50 * time.Millisecond}
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := DefaultDebitCreditConfig(3)
			cfg.Routing = RoutingRandom
			cfg.BufferPages = 64
			cfg.Warmup = 500 * time.Millisecond
			cfg.Measure = 3 * time.Second
			cfg.CheckInvariants = true
			tc.mut(&cfg)
			rep, err := Run(cfg)
			if err != nil {
				t.Fatalf("coherency violation or crash: %v", err)
			}
			if rep.Metrics.Commits == 0 {
				t.Fatal("no progress")
			}
		})
	}
}
