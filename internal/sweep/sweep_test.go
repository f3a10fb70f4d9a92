package sweep

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"gemsim/internal/cc"
	"gemsim/internal/core"
	"gemsim/internal/model"
	"gemsim/internal/workload"
)

func TestDeriveSeedStable(t *testing.T) {
	// The derivation must stay frozen: stored fingerprints and the
	// determinism guarantee depend on it.
	a := DeriveSeed(1, "fig/4.1/GEM/n=4/r0")
	if a != DeriveSeed(1, "fig/4.1/GEM/n=4/r0") {
		t.Fatal("derivation not stable")
	}
	if a == DeriveSeed(1, "fig/4.1/GEM/n=4/r1") {
		t.Fatal("different keys must derive different seeds")
	}
	if a == DeriveSeed(2, "fig/4.1/GEM/n=4/r0") {
		t.Fatal("different base seeds must derive different seeds")
	}
	seen := make(map[int64]string)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("k%d", i)
		s := DeriveSeed(1, key)
		if s <= 0 {
			t.Fatalf("seed %d for %s must be positive", s, key)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision between %s and %s", prev, key)
		}
		seen[s] = key
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	run := func(mut func(*Run)) string {
		r := Run{Key: "k", Config: core.DefaultDebitCreditConfig(2)}
		r.Config.Seed = 7
		mut(&r)
		return r.Fingerprint()
	}
	base := run(func(r *Run) {})
	if base != run(func(r *Run) {}) {
		t.Fatal("fingerprint not stable")
	}
	for name, mut := range map[string]func(*Run){
		"key":    func(r *Run) { r.Key = "other" },
		"seed":   func(r *Run) { r.Config.Seed = 8 },
		"nodes":  func(r *Run) { r.Config.Nodes = 3 },
		"force":  func(r *Run) { r.Config.Force = true },
		"mpl":    func(r *Run) { r.Config.MPL = 16 },
		"window": func(r *Run) { r.Config.Measure += time.Second },
	} {
		if run(mut) == base {
			t.Fatalf("fingerprint ignores %s", name)
		}
	}
}

// fakeExec is a deterministic stand-in for core.Run: the metrics are
// pure functions of the configuration, and the wall clock is bounded.
func fakeExec(cfg core.Config) (*core.Report, error) {
	time.Sleep(2 * time.Millisecond)
	rep := &core.Report{}
	rep.Config = cfg
	rep.Metrics.MeanResponseTime = time.Duration(cfg.Seed%1000+1) * time.Millisecond
	rep.Metrics.Throughput = float64(100 * cfg.Nodes)
	rep.Metrics.Commits = cfg.Seed%97 + 1
	return rep, nil
}

// fakeRuns builds a single-group run list with points x replicas cells.
func fakeRuns(points, reps int) []Run {
	var runs []Run
	for i := 0; i < points; i++ {
		for k := 0; k < reps; k++ {
			key := fmt.Sprintf("t/p%d/r%d", i, k)
			cfg := core.DefaultDebitCreditConfig(1 + i%3)
			cfg.Seed = DeriveSeed(5, key)
			runs = append(runs, Run{
				Key: key, Group: "t", Title: "fake sweep", XLabel: "point", YLabel: "rt",
				Row: fmt.Sprintf("p%d", i), Cols: []string{"series"}, RowIdx: i, ColIdx: 0, Replica: k,
				Config: cfg,
				Cells: func(r *core.Report) ([]float64, error) {
					return []float64{float64(r.Metrics.MeanResponseTime) / 1e6}, nil
				},
			})
		}
	}
	return runs
}

func renderAll(runs []Run, results map[string]Result) string {
	var b strings.Builder
	for _, f := range Tables(runs, results) {
		b.WriteString(f.Table.Render())
		b.WriteString(f.Table.CSV())
		b.WriteString(f.Table.Markdown())
	}
	return b.String()
}

func TestExecuteDeterministicAcrossJobs(t *testing.T) {
	runs := fakeRuns(6, 3)
	var outputs []string
	for _, jobs := range []int{1, 8} {
		results, sum, err := Execute(runs, Engine{Jobs: jobs, exec: fakeExec})
		if err != nil {
			t.Fatal(err)
		}
		if sum.Executed != len(runs) || sum.Failed != 0 {
			t.Fatalf("jobs=%d: %s", jobs, sum.String())
		}
		outputs = append(outputs, renderAll(runs, results))
	}
	if outputs[0] != outputs[1] {
		t.Fatalf("tables differ between -jobs 1 and -jobs 8:\n%s\n--- vs ---\n%s", outputs[0], outputs[1])
	}
	if !strings.Contains(outputs[0], "±") {
		t.Fatal("replicated sweep must render confidence half-widths")
	}
	if !strings.Contains(outputs[0], "hw95") {
		t.Fatal("replicated sweep must emit hw95 CSV columns")
	}
}

func TestExecuteDuplicateKeys(t *testing.T) {
	runs := fakeRuns(2, 1)
	runs[1].Key = runs[0].Key
	if _, _, err := Execute(runs, Engine{Jobs: 1, exec: fakeExec}); err == nil {
		t.Fatal("duplicate run keys must be rejected")
	}
}

func TestPanicCapture(t *testing.T) {
	runs := fakeRuns(3, 1)
	boom := func(cfg core.Config) (*core.Report, error) {
		if cfg.Seed == runs[1].Config.Seed {
			panic("synthetic failure")
		}
		return fakeExec(cfg)
	}
	results, sum, err := Execute(runs, Engine{Jobs: 2, exec: boom})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 1 || sum.Executed != 3 {
		t.Fatalf("summary %s", sum.String())
	}
	res := results[runs[1].Key]
	if !strings.Contains(res.Err, "panicked") || !strings.Contains(res.Err, "synthetic failure") {
		t.Fatalf("panic not captured: %q", res.Err)
	}
	if len(sum.Failures) != 1 || sum.Failures[0].Key != runs[1].Key {
		t.Fatalf("failures %v", sum.Failures)
	}
	// The healthy runs still produced values.
	if results[runs[0].Key].Values["value"] <= 0 {
		t.Fatal("healthy run lost its value")
	}
}

func TestRunTimeout(t *testing.T) {
	runs := fakeRuns(1, 1)
	slow := func(cfg core.Config) (*core.Report, error) {
		time.Sleep(time.Second)
		return fakeExec(cfg)
	}
	results, sum, err := Execute(runs, Engine{Jobs: 1, Timeout: 20 * time.Millisecond, exec: slow})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 1 {
		t.Fatalf("summary %s", sum.String())
	}
	if res := results[runs[0].Key]; !strings.Contains(res.Err, "timeout") {
		t.Fatalf("timeout not reported: %q", res.Err)
	}
}

func TestBoundedRetry(t *testing.T) {
	runs := fakeRuns(2, 1)
	var mu sync.Mutex
	attempts := make(map[int64]int)
	flaky := func(cfg core.Config) (*core.Report, error) {
		mu.Lock()
		attempts[cfg.Seed]++
		n := attempts[cfg.Seed]
		mu.Unlock()
		if n == 1 {
			return nil, fmt.Errorf("transient failure")
		}
		return fakeExec(cfg)
	}
	results, sum, err := Execute(runs, Engine{Jobs: 2, Retries: 1, exec: flaky})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 0 {
		t.Fatalf("summary %s", sum.String())
	}
	for _, r := range runs {
		if res := results[r.Key]; res.Attempts != 2 {
			t.Fatalf("run %s used %d attempts, want 2", r.Key, res.Attempts)
		}
	}

	// Without retries the same failures are final.
	attempts = make(map[int64]int)
	_, sum, err = Execute(runs, Engine{Jobs: 1, exec: flaky})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 2 {
		t.Fatalf("summary without retries %s", sum.String())
	}
}

func TestTablesSkipsFailedCells(t *testing.T) {
	runs := fakeRuns(2, 1)
	boom := func(cfg core.Config) (*core.Report, error) {
		if cfg.Seed == runs[0].Config.Seed {
			return nil, fmt.Errorf("broken point")
		}
		return fakeExec(cfg)
	}
	results, _, err := Execute(runs, Engine{Jobs: 1, exec: boom})
	if err != nil {
		t.Fatal(err)
	}
	figs := Tables(runs, results)
	if len(figs) != 1 {
		t.Fatalf("%d figures", len(figs))
	}
	if figs[0].Failed != 1 {
		t.Fatalf("failed count %d", figs[0].Failed)
	}
	if !strings.Contains(figs[0].Table.Render(), "-") {
		t.Fatal("failed cell must render as '-'")
	}
}

// fingerprintExcluded lists the core.Config fields a fingerprint
// deliberately ignores, with the reason.
var fingerprintExcluded = map[string]string{
	"Tracing": "observes a run without changing its results",
}

// TestFingerprintCoversEveryResultField changes each result-affecting
// Config field, promoted fields of embedded structs included, in turn and requires a different fingerprint, so a
// resumed sweep never reuses a result of a different configuration. A
// new Config field fails the test until it gets a mutation here or an
// entry in fingerprintExcluded.
func TestFingerprintCoversEveryResultField(t *testing.T) {
	base := func() core.Config {
		cfg := core.DefaultDebitCreditConfig(2)
		cfg.Seed = 7
		cfg.ClosedLoop = &core.ClosedLoopConfig{TerminalsPerNode: 4, ThinkTime: time.Second}
		cfg.Faults = &core.FaultConfig{MTBF: 8 * time.Second, MTTR: time.Second}
		cfg.Control = true
		return cfg
	}
	dc := workload.DefaultDebitCreditParams(200)
	mutations := map[string]func(*core.Config){
		"Nodes":                       func(c *core.Config) { c.Nodes = 3 },
		"ArrivalRatePerNode":          func(c *core.Config) { c.ArrivalRatePerNode = 90 },
		"Coupling":                    func(c *core.Config) { c.Coupling = core.CouplingPCL },
		"Force":                       func(c *core.Config) { c.Force = true },
		"Routing":                     func(c *core.Config) { c.Routing = core.RoutingRandom },
		"CC":                          func(c *core.Config) { c.CC = cc.KindOCC },
		"BufferPages":                 func(c *core.Config) { c.BufferPages = 300 },
		"MPL":                         func(c *core.Config) { c.MPL = 16 },
		"Workload":                    func(c *core.Config) { c.Workload.DebitCredit = &dc },
		"FileMedium":                  func(c *core.Config) { c.FileMedium = map[string]model.Medium{"ACCOUNT": model.MediumGEM} },
		"DiskCachePages":              func(c *core.Config) { c.DiskCachePages = map[string]int{"ACCOUNT": 10} },
		"LogInGEM":                    func(c *core.Config) { c.LogInGEM = true },
		"GEMMessaging":                func(c *core.Config) { c.GEMMessaging = true },
		"GlobalLogMerge":              func(c *core.Config) { c.GlobalLogMerge = true },
		"ClosedLoop":                  func(c *core.Config) { c.ClosedLoop = nil },
		"ClosedLoop.TerminalsPerNode": func(c *core.Config) { c.ClosedLoop.TerminalsPerNode = 5 },
		"ClosedLoop.ThinkTime":        func(c *core.Config) { c.ClosedLoop.ThinkTime = 2 * time.Second },
		"Warmup":                      func(c *core.Config) { c.Warmup += time.Second },
		"Measure":                     func(c *core.Config) { c.Measure += time.Second },
		"Seed":                        func(c *core.Config) { c.Seed = 8 },
		"CheckInvariants":             func(c *core.Config) { c.CheckInvariants = true },
		"Faults":                      func(c *core.Config) { c.Faults.RecoveryWorkers = 4 },
		"Attribution":                 func(c *core.Config) { c.Attribution.Off = true },
		"Control":                     func(c *core.Config) { c.Control = false },
		"LockInstr":                   func(c *core.Config) { c.LockInstr = 40000 },
		"InstantWakeup":               func(c *core.Config) { c.InstantWakeup = true },
		"GEMPageTransfer":             func(c *core.Config) { c.GEMPageTransfer = true },
	}
	// VisibleFields includes the fields promoted from embedded structs
	// (node.ModelKnobs), so each shared knob needs its own mutation.
	for _, f := range reflect.VisibleFields(reflect.TypeOf(core.Config{})) {
		if f.Anonymous {
			continue
		}
		if _, ok := mutations[f.Name]; !ok && fingerprintExcluded[f.Name] == "" {
			t.Errorf("Config.%s has no fingerprint mutation and no exclusion", f.Name)
		}
	}
	fp := func(cfg core.Config) string {
		r := Run{Key: "k", Config: cfg}
		return r.Fingerprint()
	}
	want := fp(base())
	for name, mut := range mutations {
		cfg := base()
		mut(&cfg)
		if fp(cfg) == want {
			t.Errorf("fingerprint ignores %s", name)
		}
	}
}

func TestMetricTable(t *testing.T) {
	seen := make(map[string]bool)
	for _, m := range metrics {
		if seen[m.name] || m.label == "" || m.extract == nil {
			t.Errorf("metric %q is declared twice or incompletely", m.name)
		}
		seen[m.name] = true
	}
	if len(MetricNames()) != len(metrics) {
		t.Error("MetricNames does not list every metric")
	}
	if _, ok := Metric("bogus"); ok || MetricLabel("bogus") != "bogus" {
		t.Error("unknown metric resolved")
	}
}
