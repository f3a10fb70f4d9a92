package core

import (
	"strings"
	"testing"
	"time"

	"gemsim/internal/cc"
	"gemsim/internal/model"
	"gemsim/internal/node"
	"gemsim/internal/workload"
)

// TestTable41Defaults pins the Table 4.1 parameter settings of the
// paper.
func TestTable41Defaults(t *testing.T) {
	p := node.DefaultParams(10)
	// CPU capacity: 4 processors of 10 MIPS per node.
	if p.CPUsPerNode != 4 || p.MIPSPerCPU != 10 {
		t.Errorf("CPU config %d x %v MIPS, want 4 x 10", p.CPUsPerNode, p.MIPSPerCPU)
	}
	// Path length: 250,000 instructions per transaction.
	if got := p.BOTInstr + 4*p.RefInstr + p.EOTInstr; got != 250000 {
		t.Errorf("path length %v, want 250000", got)
	}
	// GEM: 1 server, 50 µs per page, 2 µs per entry.
	if p.GEM.Servers != 1 || p.GEM.PageAccess != 50*time.Microsecond || p.GEM.EntryAccess != 2*time.Microsecond {
		t.Errorf("GEM params %+v", p.GEM)
	}
	// Communication: 5000/8000 instructions per short/long send or
	// receive; 10 MB/s bandwidth.
	if p.Net.ShortInstr != 5000 || p.Net.LongInstr != 8000 {
		t.Errorf("message overheads %v/%v", p.Net.ShortInstr, p.Net.LongInstr)
	}
	if p.Net.BandwidthBytesPerSec != 10*1000*1000 {
		t.Errorf("bandwidth %v", p.Net.BandwidthBytesPerSec)
	}
	// I/O overhead: 3000 instructions per page, 300 for GEM I/O.
	if p.IOInstr != 3000 || p.GEMIOInstr != 300 {
		t.Errorf("I/O overheads %v/%v", p.IOInstr, p.GEMIOInstr)
	}
	// Default buffer 200 pages.
	cfg := DefaultDebitCreditConfig(10)
	if cfg.BufferPages != 200 || cfg.ArrivalRatePerNode != 100 {
		t.Errorf("config %+v", cfg)
	}
	// Database scaling: 100 branches, 1000 tellers, 10 million
	// accounts per 100 TPS; blocking factors 1/10/10/20.
	dc := workload.DefaultDebitCreditParams(1000)
	if dc.Branches != 1000 {
		t.Errorf("branches %d, want 1000 for 10 nodes", dc.Branches)
	}
	if dc.AccountBlocking != 10 || dc.HistoryBlocking != 20 {
		t.Errorf("blocking factors %+v", dc)
	}
	// Disk timings: 15 ms database disks, 5 ms log disks, 1 ms
	// controller, 0.4 ms transfer (checked in storage tests; repeat
	// the derived totals here for the record): 16.4 ms / 6.4 ms.
}

func TestConfigValidation(t *testing.T) {
	good := DefaultDebitCreditConfig(2)
	if err := good.validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		mutate func(*Config)
		want   string // expected error substring, if pinned
	}{
		{func(c *Config) { c.Nodes = 0 }, ""},
		{func(c *Config) { c.ArrivalRatePerNode = 0 }, ""},
		{func(c *Config) { c.Coupling = 0 }, ""},
		{func(c *Config) { c.Routing = 0 }, ""},
		{func(c *Config) { c.BufferPages = 0 }, ""},
		{func(c *Config) { c.Measure = 0 }, ""},
		{func(c *Config) { c.Warmup = -time.Second }, ""},
		{func(c *Config) {
			c.Workload.DebitCredit = &workload.DebitCreditParams{}
			c.Workload.Trace = &workload.Trace{}
		}, ""},
		// Model rules, declared in node.Params.Validate.
		{func(c *Config) { c.Coupling = CouplingLockEngine }, "uses FORCE update propagation"},
		{func(c *Config) { c.Coupling, c.Force, c.CC = CouplingLockEngine, true, cc.KindOCC }, "native 2PL protocol"},
		{func(c *Config) { c.CC, c.Force = cc.KindMVTO, true }, "MV-TO serves reads"},
		{func(c *Config) { c.CC, c.CheckInvariants = cc.KindOCC, true }, "assumes two-phase locking"},
		{func(c *Config) { c.GlobalLogMerge = true }, "GlobalLogMerge requires LogInGEM"},
		{func(c *Config) { c.Coupling, c.Force, c.Faults = CouplingLockEngine, true, &FaultConfig{} }, "fault injection is not supported"},
		{func(c *Config) { c.CheckInvariants, c.Faults = true, &FaultConfig{} }, "incompatible with CheckInvariants"},
	}
	for i, tc := range cases {
		cfg := DefaultDebitCreditConfig(2)
		tc.mutate(&cfg)
		if err := cfg.validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("case %d: error %q does not mention %q", i, err, tc.want)
		}
	}
}

func TestRunRejectsUnknownFileNames(t *testing.T) {
	cfg := DefaultDebitCreditConfig(1)
	cfg.Measure = time.Second
	cfg.FileMedium = map[string]model.Medium{"NOPE": model.MediumGEM}
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "NOPE") {
		t.Fatalf("err = %v, want unknown file error", err)
	}
	cfg = DefaultDebitCreditConfig(1)
	cfg.Measure = time.Second
	cfg.DiskCachePages = map[string]int{"NOPE": 10}
	if _, err := Run(cfg); err == nil {
		t.Fatal("expected unknown file error for DiskCachePages")
	}
}

func TestRunDeterminism(t *testing.T) {
	run := func() *Report {
		cfg := DefaultDebitCreditConfig(2)
		cfg.Warmup = 500 * time.Millisecond
		cfg.Measure = 2 * time.Second
		cfg.Routing = RoutingRandom
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Metrics.Commits != b.Metrics.Commits ||
		a.Metrics.MeanResponseTime != b.Metrics.MeanResponseTime ||
		a.Metrics.ShortMessages != b.Metrics.ShortMessages ||
		a.Metrics.GEMEntryAcc != b.Metrics.GEMEntryAcc {
		t.Fatalf("runs with the same seed diverged:\n%+v\n%+v", a.Metrics, b.Metrics)
	}
}

func TestRunSeedSensitivity(t *testing.T) {
	cfg := DefaultDebitCreditConfig(1)
	cfg.Warmup = 500 * time.Millisecond
	cfg.Measure = 2 * time.Second
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 99
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics.MeanResponseTime == b.Metrics.MeanResponseTime {
		t.Fatal("different seeds produced identical response times")
	}
}

func TestExperimentCatalog(t *testing.T) {
	exps, err := Experiments(1)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"4.1", "4.2", "4.3a", "4.3b", "4.4",
		"4.5-FORCE-buf200", "4.5-FORCE-buf1000", "4.5-NOFORCE-buf200", "4.5-NOFORCE-buf1000",
		"4.6", "4.7", "lockengine", "gemtransport"}
	got := make(map[string]bool, len(exps))
	for i := range exps {
		got[exps[i].ID] = true
		if len(exps[i].Series) == 0 || len(exps[i].Nodes) == 0 || exps[i].Value == nil {
			t.Errorf("experiment %s incomplete", exps[i].ID)
		}
	}
	for _, id := range want {
		if !got[id] {
			t.Errorf("experiment %s missing", id)
		}
	}
	if _, err := ExperimentByID("4.1", 1); err != nil {
		t.Error(err)
	}
	if _, err := ExperimentByID("bogus", 1); err == nil {
		t.Error("expected error for unknown experiment")
	}
}

func TestExperimentPointConfigs(t *testing.T) {
	// End-to-end execution of experiments lives in internal/sweep;
	// here we check the point builders the engine consumes.
	exp, err := ExperimentByID("4.1", 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := ExperimentOptions{
		Warmup:  250 * time.Millisecond,
		Measure: time.Second,
		Nodes:   []int{1, 2},
	}
	nodes := exp.PointNodes(opts)
	if len(nodes) != 2 || nodes[0] != 1 || nodes[1] != 2 {
		t.Fatalf("node axis %v", nodes)
	}
	tbl := exp.Table(opts)
	if len(tbl.RowNames) != 2 || len(tbl.ColNames) != 4 {
		t.Fatalf("table shape %dx%d", len(tbl.RowNames), len(tbl.ColNames))
	}
	for j := range exp.Series {
		cfg := exp.PointConfig(j, 2, opts)
		if cfg.Nodes != 2 {
			t.Fatalf("series %d: nodes %d", j, cfg.Nodes)
		}
		if cfg.Warmup != opts.Warmup || cfg.Measure != opts.Measure {
			t.Fatalf("series %d: windows %v/%v not overridden", j, cfg.Warmup, cfg.Measure)
		}
		if cfg.Seed != 1 {
			t.Fatalf("series %d: base seed %d", j, cfg.Seed)
		}
	}
	rep, err := Run(exp.PointConfig(0, 1, opts))
	if err != nil {
		t.Fatal(err)
	}
	if exp.Value(rep) <= 0 {
		t.Fatal("metric extraction failed")
	}
}

func TestReportString(t *testing.T) {
	cfg := DefaultDebitCreditConfig(1)
	cfg.Warmup = 100 * time.Millisecond
	cfg.Measure = 500 * time.Millisecond
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := rep.String()
	for _, want := range []string{"N=1", "GEM", "NOFORCE", "affinity", "RT="} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary %q missing %q", s, want)
		}
	}
	if rep.ThroughputPerNodeAt(0.8) <= 0 {
		t.Fatal("capacity derivation failed")
	}
}

func TestLogInGEMSpeedsCommit(t *testing.T) {
	base := DefaultDebitCreditConfig(1)
	base.Warmup = 500 * time.Millisecond
	base.Measure = 2 * time.Second
	slow, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	fast := base
	fast.LogInGEM = true
	quick, err := Run(fast)
	if err != nil {
		t.Fatal(err)
	}
	// Removing the 6.4 ms log disk write from the commit path must
	// shorten response times noticeably.
	diff := slow.Metrics.MeanResponseTime - quick.Metrics.MeanResponseTime
	if diff < 3*time.Millisecond {
		t.Fatalf("log-in-GEM speedup %v, want > 3ms", diff)
	}
}

func TestClosedLoopConfig(t *testing.T) {
	cfg := DefaultDebitCreditConfig(1)
	cfg.ClosedLoop = &ClosedLoopConfig{TerminalsPerNode: 8, ThinkTime: 100 * time.Millisecond}
	cfg.Warmup = 500 * time.Millisecond
	cfg.Measure = 2 * time.Second
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := &rep.Metrics
	if m.Commits == 0 {
		t.Fatal("closed loop produced no commits")
	}
	// Sanity: 8 terminals with ~100ms think + ~60ms service can't
	// exceed 8/(0.16s) = 50 TPS.
	if m.Throughput > 60 {
		t.Fatalf("throughput %.1f exceeds the closed-loop bound", m.Throughput)
	}
	bad := cfg
	bad.ClosedLoop = &ClosedLoopConfig{TerminalsPerNode: 0}
	if _, err := Run(bad); err == nil {
		t.Fatal("zero terminals must be rejected")
	}
}

func TestLockEngineConfigRun(t *testing.T) {
	cfg := DefaultDebitCreditConfig(2)
	cfg.Coupling = CouplingLockEngine
	cfg.Force = true
	cfg.Routing = RoutingRandom
	cfg.Warmup = 500 * time.Millisecond
	cfg.Measure = 2 * time.Second
	cfg.CheckInvariants = true
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics.LockEngineUtilization <= 0 {
		t.Fatal("lock engine unused")
	}
	noforce := cfg
	noforce.Force = false
	if _, err := Run(noforce); err == nil {
		t.Fatal("lock engine without FORCE must be rejected")
	}
}

func TestGEMMessagingConfigRun(t *testing.T) {
	cfg := DefaultDebitCreditConfig(2)
	cfg.Coupling = CouplingPCL
	cfg.Routing = RoutingRandom
	cfg.GEMMessaging = true
	cfg.Warmup = 500 * time.Millisecond
	cfg.Measure = 2 * time.Second
	cfg.CheckInvariants = true
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics.GEMEntryAcc == 0 {
		t.Fatal("PCL messages must travel through GEM entries")
	}
}

func TestGlobalLogMergeConfigRun(t *testing.T) {
	cfg := DefaultDebitCreditConfig(1)
	cfg.LogInGEM = true
	cfg.GlobalLogMerge = true
	cfg.Warmup = 500 * time.Millisecond
	cfg.Measure = 2 * time.Second
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.LogInGEM = false
	if _, err := Run(bad); err == nil {
		t.Fatal("GlobalLogMerge without LogInGEM must be rejected")
	}
}

func TestExperimentWindowsDefault(t *testing.T) {
	// Without option overrides a point gets the experiment's default
	// windows (replicated execution is covered in internal/sweep).
	exp, err := ExperimentByID("4.1", 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := exp.PointConfig(0, 1, ExperimentOptions{Seed: 7})
	if cfg.Warmup <= 0 || cfg.Measure <= 0 {
		t.Fatalf("default windows %v/%v", cfg.Warmup, cfg.Measure)
	}
	if cfg.Seed != 7 {
		t.Fatalf("seed override %d", cfg.Seed)
	}
}

func TestResponseTimeByType(t *testing.T) {
	trace, err := PaperTrace(3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTraceConfig(2, trace)
	cfg.Warmup = 2 * time.Second
	cfg.Measure = 6 * time.Second
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byType := rep.Metrics.ResponseTimeByType
	if len(byType) < 6 {
		t.Fatalf("per-type response times for only %d types", len(byType))
	}
	for typ, rt := range byType {
		if rt <= 0 {
			t.Fatalf("type %d has non-positive response time", typ)
		}
	}
}

func TestResponseTimeConfidenceInterval(t *testing.T) {
	cfg := DefaultDebitCreditConfig(2)
	cfg.Warmup = time.Second
	cfg.Measure = 8 * time.Second
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := &rep.Metrics
	if m.ResponseTimeHW95 <= 0 {
		t.Fatal("confidence half-width missing")
	}
	// With ~1500 committed transactions the half-width must be a small
	// fraction of the mean.
	if m.ResponseTimeHW95 > m.MeanResponseTime/4 {
		t.Fatalf("half-width %v too wide for mean %v", m.ResponseTimeHW95, m.MeanResponseTime)
	}
}

func TestLoadAwareRoutingConfig(t *testing.T) {
	cfg := DefaultDebitCreditConfig(3)
	cfg.Routing = RoutingLoadAware
	cfg.Warmup = 500 * time.Millisecond
	cfg.Measure = 2 * time.Second
	cfg.CheckInvariants = true
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := &rep.Metrics
	if m.Commits == 0 {
		t.Fatal("no commits")
	}
	// Load balance: per-node CPU utilizations must stay close.
	if m.MaxCPUUtilization > m.MeanCPUUtilization*1.3 {
		t.Fatalf("load-aware routing unbalanced: max %.2f vs mean %.2f",
			m.MaxCPUUtilization, m.MeanCPUUtilization)
	}
	if r, err2 := ParseRouting("loadaware"); err2 != nil || r != RoutingLoadAware {
		t.Fatalf("parse loadaware: %v %v", r, err2)
	}
}
