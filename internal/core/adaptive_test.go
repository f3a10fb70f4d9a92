package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gemsim/internal/workload"
)

// TestAdaptiveBeatsStatic is the acceptance gate of the load-control
// subsystem: under the skewed, drifting preset workload the controller
// must improve BOTH throughput and tail response time over the static
// allocation, for GEM and for PCL.
func TestAdaptiveBeatsStatic(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation runs; skipped with -short")
	}
	for _, coupling := range []Coupling{CouplingGEM, CouplingPCL} {
		static, err := Run(AdaptiveConfig(coupling, false, adaptiveQuick))
		if err != nil {
			t.Fatalf("%v static: %v", coupling, err)
		}
		adaptive, err := Run(AdaptiveConfig(coupling, true, adaptiveQuick))
		if err != nil {
			t.Fatalf("%v adaptive: %v", coupling, err)
		}
		sm, am := &static.Metrics, &adaptive.Metrics
		if am.Throughput <= sm.Throughput {
			t.Errorf("%v: adaptive throughput %.1f not above static %.1f",
				coupling, am.Throughput, sm.Throughput)
		}
		if am.P95ResponseTime >= sm.P95ResponseTime {
			t.Errorf("%v: adaptive p95 RT %v not below static %v",
				coupling, am.P95ResponseTime, sm.P95ResponseTime)
		}
		if am.CtlReroutes == 0 {
			t.Errorf("%v: controller recorded no reroutes under drift", coupling)
		}
		if sm.CtlThrottles+sm.CtlProbes+sm.CtlReroutes+sm.CtlMigrations != 0 {
			t.Errorf("%v: static run recorded controller actions", coupling)
		}
	}
}

// TestAdaptiveDeterministic checks that a controlled run is an exact
// function of its configuration and seed.
func TestAdaptiveDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation runs; skipped with -short")
	}
	opts := PresetOptions{Warmup: time.Second, Measure: 5 * time.Second}
	a, err := Run(AdaptiveConfig(CouplingPCL, true, opts))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(AdaptiveConfig(CouplingPCL, true, opts))
	if err != nil {
		t.Fatal(err)
	}
	am, bm := &a.Metrics, &b.Metrics
	if am.Commits != bm.Commits || am.MeanResponseTime != bm.MeanResponseTime ||
		am.CtlThrottles != bm.CtlThrottles || am.CtlReroutes != bm.CtlReroutes ||
		am.CtlMigrations != bm.CtlMigrations {
		t.Fatalf("repeated adaptive runs diverged:\n%+v commits=%d\n%+v commits=%d",
			am.CtlReroutes, am.Commits, bm.CtlReroutes, bm.Commits)
	}
}

// TestControlConfigValidation covers the controller-related
// configuration rejections.
func TestControlConfigValidation(t *testing.T) {
	cfg := DefaultDebitCreditConfig(2)
	cfg.Measure = time.Second
	cfg.Coupling = CouplingLockEngine
	cfg.Force = true
	cfg.Control = true
	if _, err := Run(cfg); err == nil {
		t.Error("control config accepted for the lock engine baseline")
	}
}

// TestConfigFileSkewControl checks the JSON plumbing of the skew and
// control blocks: "control": {} turns the controller on, and the block
// takes no keys (the controller's tuning is fixed).
func TestConfigFileSkewControl(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.json")
	body := `{
		"nodes": 2, "coupling": "pcl", "routing": "affinity",
		"warmup": "250ms", "measure": "1s",
		"skew": {
			"branchTheta": 0.8, "accountTheta": 0.4,
			"drift": [{"at": "600ms", "rotate": 0.5}]
		},
		"control": {}
	}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadConfigFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dc := cfg.Workload.DebitCredit
	if dc == nil || dc.Skew == nil || dc.Skew.BranchTheta != 0.8 || len(dc.Skew.Drift) != 1 {
		t.Fatalf("skew block not applied: %+v", dc)
	}
	if !cfg.Control {
		t.Fatal("control block did not turn the controller on")
	}
	if _, err := Run(cfg); err != nil {
		t.Fatalf("config-file adaptive run failed: %v", err)
	}

	tp := workload.DefaultTraceGenParams(1)
	tp.Transactions = 200
	tr, err := workload.GenerateTrace(tp)
	if err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(t.TempDir(), "w.trc")
	if err := tr.WriteFile(tracePath); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]struct{ body, err string }{
		"skew-with-trace":    {`{"nodes":1,"traceFile":"TRACE","skew":{"branchTheta":0.5}}`, "skew applies to the debit-credit workload"},
		"control-with-trace": {`{"nodes":2,"traceFile":"TRACE","control":{}}`, "adaptive control requires the debit-credit workload"},
		"bad-theta":          {`{"nodes":1,"skew":{"branchTheta":1.5}}`, "theta"},
		"tuning-key":         {`{"nodes":1,"control":{"minMPL":2}}`, `unknown field "minMPL"`},
		"control-value":      {`{"nodes":1,"control":true}`, "control"},
	} {
		body := strings.ReplaceAll(bad.body, "TRACE", tracePath)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadConfigFile(path); err == nil || !strings.Contains(err.Error(), bad.err) {
			t.Errorf("%s: error %v, want one naming %q", name, err, bad.err)
		}
	}
}
