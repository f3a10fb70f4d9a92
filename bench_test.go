// Package gemsim_bench holds the benchmark harness that regenerates
// every table and figure of the paper's evaluation section. Each
// benchmark runs the corresponding experiment with reduced simulation
// windows (benchmarks measure harness cost; the full-length figures are
// produced by `go run ./cmd/experiments -all`, see EXPERIMENTS.md) and
// reports the resulting series through b.Log and custom metrics.
//
// Run them all with:
//
//	go test -bench=. -benchmem
package gemsim_bench

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"gemsim/internal/core"
	"gemsim/internal/model"
	"gemsim/internal/node"
	"gemsim/internal/sweep"
	"gemsim/internal/workload"
)

// benchOptions returns reduced windows so a full -bench=. pass stays
// fast while still reproducing the shape of every figure.
func benchOptions() core.ExperimentOptions {
	return core.ExperimentOptions{
		Warmup:  time.Second,
		Measure: 4 * time.Second,
		Nodes:   []int{1, 4, 8},
		Seed:    1,
	}
}

// runExperiment executes one paper experiment per benchmark iteration
// through the sweep engine (single worker, so op cost stays comparable
// across machines) and logs the resulting table once.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	exp, err := core.ExperimentByID(id, 1)
	if err != nil {
		b.Fatal(err)
	}
	opts := benchOptions()
	if id == "4.7" {
		// The trace experiment is the heaviest; a smaller node axis
		// keeps the benchmark pass quick.
		opts.Nodes = []int{1, 4}
	}
	var rendered string
	var runs int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl, sum, err := sweep.RunFigure(exp, opts, sweep.Engine{Jobs: 1})
		if err != nil {
			b.Fatal(err)
		}
		if sum.Failed > 0 {
			b.Fatalf("%d runs failed: %v", sum.Failed, sum.Failures[0])
		}
		rendered = tbl.Render()
		runs = sum.Total
	}
	b.StopTimer()
	b.ReportMetric(float64(runs), "simruns/op")
	if rendered != "" {
		b.Logf("\n%s", rendered)
	}
}

// BenchmarkSweepScaling measures the parallel sweep engine against its
// single-worker baseline on the same run list (Fig. 4.1, reduced
// windows) and reports the speedup. On an N-core machine the parallel
// pass should approach min(N, runs) times the sequential throughput;
// the tables are byte-identical either way.
func BenchmarkSweepScaling(b *testing.B) {
	for _, jobs := range []int{1, runtime.NumCPU()} {
		jobs := jobs
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			exp, err := core.ExperimentByID("4.1", 1)
			if err != nil {
				b.Fatal(err)
			}
			start := time.Now()
			var wall time.Duration
			for i := 0; i < b.N; i++ {
				_, sum, err := sweep.RunFigure(exp, benchOptions(), sweep.Engine{Jobs: jobs})
				if err != nil {
					b.Fatal(err)
				}
				if sum.Failed > 0 {
					b.Fatalf("%d runs failed: %v", sum.Failed, sum.Failures[0])
				}
				wall += sum.Wall
			}
			b.StopTimer()
			if elapsed := time.Since(start); elapsed > 0 && b.N > 0 {
				b.ReportMetric(wall.Seconds()/float64(b.N), "sweep_s/op")
			}
		})
	}
}

// BenchmarkTable41 checks the Table 4.1 defaults and benchmarks one
// reference configuration run at those settings.
func BenchmarkTable41(b *testing.B) {
	p := node.DefaultParams(1)
	if got := p.BOTInstr + 4*p.RefInstr + p.EOTInstr; got != 250000 {
		b.Fatalf("path length %v, want 250000 (Table 4.1)", got)
	}
	cfg := core.DefaultDebitCreditConfig(1)
	cfg.Warmup = time.Second
	cfg.Measure = 4 * time.Second
	var rep *core.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = core.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if rep != nil {
		b.ReportMetric(float64(rep.Metrics.Commits), "txns/op")
		b.Logf("reference run: %v", rep)
	}
}

// BenchmarkFig41 regenerates Fig. 4.1: influence of workload allocation
// and update strategy for GEM locking.
func BenchmarkFig41(b *testing.B) { runExperiment(b, "4.1") }

// BenchmarkFig42 regenerates Fig. 4.2: influence of buffer size for
// random routing.
func BenchmarkFig42(b *testing.B) { runExperiment(b, "4.2") }

// BenchmarkFig43a regenerates Fig. 4.3a: BRANCH/TELLER storage
// allocation under NOFORCE.
func BenchmarkFig43a(b *testing.B) { runExperiment(b, "4.3a") }

// BenchmarkFig43b regenerates Fig. 4.3b: BRANCH/TELLER storage
// allocation under FORCE.
func BenchmarkFig43b(b *testing.B) { runExperiment(b, "4.3b") }

// BenchmarkFig44 regenerates Fig. 4.4: disk caches for the
// BRANCH/TELLER partition.
func BenchmarkFig44(b *testing.B) { runExperiment(b, "4.4") }

// BenchmarkFig45 regenerates the four panels of Fig. 4.5: PCL vs GEM
// locking.
func BenchmarkFig45(b *testing.B) {
	for _, panel := range []string{"4.5-FORCE-buf200", "4.5-FORCE-buf1000", "4.5-NOFORCE-buf200", "4.5-NOFORCE-buf1000"} {
		panel := panel
		b.Run(panel, func(b *testing.B) { runExperiment(b, panel) })
	}
}

// BenchmarkFig46 regenerates Fig. 4.6: throughput per node at 80% CPU
// utilization.
func BenchmarkFig46(b *testing.B) { runExperiment(b, "4.6") }

// BenchmarkFig47 regenerates Fig. 4.7: PCL vs GEM locking for the
// (synthetic stand-in of the) real-life trace workload.
func BenchmarkFig47(b *testing.B) { runExperiment(b, "4.7") }

// BenchmarkTraceGeneration benchmarks synthesizing the full calibrated
// trace (17,520 transactions, ~1 million references).
func BenchmarkTraceGeneration(b *testing.B) {
	var trace *workload.Trace
	for i := 0; i < b.N; i++ {
		var err error
		trace, err = workload.GenerateTrace(workload.DefaultTraceGenParams(1))
		if err != nil {
			b.Fatal(err)
		}
	}
	if trace != nil {
		s := trace.Stats()
		b.ReportMetric(float64(s.References), "refs/op")
	}
}

// BenchmarkSimulatorEventRate measures raw simulator throughput
// (committed transactions per wall-clock second) for the default
// configuration, a proxy for the kernel's event processing rate.
func BenchmarkSimulatorEventRate(b *testing.B) {
	cfg := core.DefaultDebitCreditConfig(4)
	cfg.Warmup = time.Second
	cfg.Measure = 5 * time.Second
	start := time.Now()
	var commits int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := core.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		commits += rep.Metrics.Commits
	}
	b.StopTimer()
	elapsed := time.Since(start).Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(commits)/elapsed, "simtxns/s")
	}
}

// Ablation benchmarks for the design choices called out in DESIGN.md.

// BenchmarkAblationGEMWakeup compares message-based lock wakeups with
// the InstantWakeup idealization.
func BenchmarkAblationGEMWakeup(b *testing.B) {
	for _, instant := range []bool{false, true} {
		instant := instant
		b.Run(fmt.Sprintf("instant=%v", instant), func(b *testing.B) {
			var last time.Duration
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultDebitCreditConfig(4)
				cfg.Routing = core.RoutingRandom
				cfg.Warmup = time.Second
				cfg.Measure = 4 * time.Second
				cfg.InstantWakeup = instant
				rep, err := core.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = rep.Metrics.MeanResponseTime
			}
			b.ReportMetric(float64(last)/1e6, "simRTms")
		})
	}
}

// BenchmarkAblationGEMPageTransfer compares NOFORCE page exchange over
// the communication system with exchanging pages through GEM (the
// extension discussed in the paper's conclusions).
func BenchmarkAblationGEMPageTransfer(b *testing.B) {
	for _, viaGEM := range []bool{false, true} {
		viaGEM := viaGEM
		b.Run(fmt.Sprintf("viaGEM=%v", viaGEM), func(b *testing.B) {
			var rt, delay time.Duration
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultDebitCreditConfig(6)
				cfg.Routing = core.RoutingRandom
				cfg.BufferPages = 1000
				cfg.Warmup = time.Second
				cfg.Measure = 4 * time.Second
				cfg.GEMPageTransfer = viaGEM
				rep, err := core.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				rt = rep.Metrics.MeanResponseTime
				delay = rep.Metrics.MeanPageReqDelay
			}
			b.ReportMetric(float64(rt)/1e6, "simRTms")
			b.ReportMetric(float64(delay)/1e6, "simPageReqMs")
		})
	}
}

// BenchmarkAblationLogDevice compares log allocation on log disks
// against log files kept in GEM.
func BenchmarkAblationLogDevice(b *testing.B) {
	for _, inGEM := range []bool{false, true} {
		inGEM := inGEM
		b.Run(fmt.Sprintf("logInGEM=%v", inGEM), func(b *testing.B) {
			var rt time.Duration
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultDebitCreditConfig(4)
				cfg.LogInGEM = inGEM
				cfg.Warmup = time.Second
				cfg.Measure = 4 * time.Second
				rep, err := core.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				rt = rep.Metrics.MeanResponseTime
			}
			b.ReportMetric(float64(rt)/1e6, "simRTms")
		})
	}
}

// BenchmarkAblationWriteBuffer compares the BRANCH/TELLER partition on
// plain disk, behind a non-volatile GEM write buffer, and fully
// GEM-resident (FORCE, where write latency matters most).
func BenchmarkAblationWriteBuffer(b *testing.B) {
	for _, medium := range []struct {
		name string
		m    model.Medium
	}{
		{"disk", model.MediumDisk},
		{"gemwb", model.MediumGEMWriteBuffer},
		{"gem", model.MediumGEM},
	} {
		medium := medium
		b.Run(medium.name, func(b *testing.B) {
			var rt time.Duration
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultDebitCreditConfig(4)
				cfg.Force = true
				cfg.Routing = core.RoutingRandom
				cfg.BufferPages = 1000
				cfg.FileMedium = map[string]model.Medium{"BRANCH/TELLER": medium.m}
				cfg.Warmup = time.Second
				cfg.Measure = 4 * time.Second
				rep, err := core.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				rt = rep.Metrics.MeanResponseTime
			}
			b.ReportMetric(float64(rt)/1e6, "simRTms")
		})
	}
}

// BenchmarkAblationClustering compares the clustered BRANCH/TELLER
// layout (three page accesses per transaction) with the unclustered
// one (four).
func BenchmarkAblationClustering(b *testing.B) {
	for _, clustered := range []bool{true, false} {
		clustered := clustered
		b.Run(fmt.Sprintf("clustered=%v", clustered), func(b *testing.B) {
			var rt time.Duration
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultDebitCreditConfig(2)
				params := workload.DefaultDebitCreditParams(cfg.ArrivalRatePerNode * float64(cfg.Nodes))
				params.Clustered = clustered
				cfg.Workload.DebitCredit = &params
				cfg.Warmup = time.Second
				cfg.Measure = 4 * time.Second
				rep, err := core.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				rt = rep.Metrics.MeanResponseTime
			}
			b.ReportMetric(float64(rt)/1e6, "simRTms")
		})
	}
}
