package core

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"gemsim/internal/node"
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
	cfg.Control = &node.ControlConfig{} // neither admission nor reroute
	if _, err := Run(cfg); err == nil {
		t.Error("empty control config accepted")
	}
	cfg = DefaultDebitCreditConfig(2)
	cfg.Measure = time.Second
	cfg.Coupling = CouplingLockEngine
	cfg.Force = true
	cfg.Control = node.DefaultControlConfig()
	if _, err := Run(cfg); err == nil {
		t.Error("control config accepted for the lock engine baseline")
	}
	bad := node.DefaultControlConfig()
	bad.Backoff = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("backoff 1.5 accepted")
	}
}

// TestConfigFileSkewControl checks the JSON plumbing of the skew and
// control blocks.
func TestConfigFileSkewControl(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.json")
	body := `{
		"nodes": 2, "coupling": "pcl", "routing": "affinity",
		"warmup": "250ms", "measure": "1s",
		"skew": {
			"branchTheta": 0.8, "accountTheta": 0.4,
			"drift": [{"at": "600ms", "rotate": 0.5}]
		},
		"control": {"interval": "100ms", "minMPL": 2}
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
	if cfg.Control == nil || cfg.Control.Interval != 100*time.Millisecond || cfg.Control.MinMPL != 2 {
		t.Fatalf("control block not applied: %+v", cfg.Control)
	}
	if !cfg.Control.Admission || !cfg.Control.Reroute {
		t.Fatal("control defaults lost")
	}
	if _, err := Run(cfg); err != nil {
		t.Fatalf("config-file adaptive run failed: %v", err)
	}

	for name, bad := range map[string]string{
		"skew-with-trace": `{"nodes":1,"traceFile":"/nonexistent.trc","skew":{"branchTheta":0.5}}`,
		"bad-theta":       `{"nodes":1,"skew":{"branchTheta":1.5}}`,
		"bad-interval":    `{"nodes":1,"control":{"interval":"-1s"}}`,
	} {
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadConfigFile(path); err == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
}
