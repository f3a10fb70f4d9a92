package core

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"gemsim/internal/model"
)

func writeCfg(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cfg.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadConfigFile(t *testing.T) {
	path := writeCfg(t, `{
		"nodes": 4,
		"coupling": "pcl",
		"routing": "random",
		"force": true,
		"bufferPages": 1000,
		"fileMedium": {"BRANCH/TELLER": "nvcache"},
		"warmup": "250ms",
		"measure": "1s",
		"seed": 7,
		"checkInvariants": true
	}`)
	cfg, err := LoadConfigFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Nodes != 4 || cfg.Coupling != CouplingPCL || cfg.Routing != RoutingRandom {
		t.Fatalf("cfg %+v", cfg)
	}
	if !cfg.Force || cfg.BufferPages != 1000 || cfg.Seed != 7 || !cfg.CheckInvariants {
		t.Fatalf("cfg %+v", cfg)
	}
	if cfg.FileMedium["BRANCH/TELLER"] != model.MediumDiskCacheNV {
		t.Fatalf("medium %v", cfg.FileMedium)
	}
	if cfg.Warmup != 250*time.Millisecond || cfg.Measure != time.Second {
		t.Fatalf("windows %v/%v", cfg.Warmup, cfg.Measure)
	}
	// The loaded config must actually run.
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics.Commits == 0 {
		t.Fatal("no commits")
	}
}

func TestLoadConfigFileClosedLoop(t *testing.T) {
	path := writeCfg(t, `{
		"nodes": 1,
		"coupling": "gem",
		"routing": "affinity",
		"closedLoopTerminals": 4,
		"closedLoopThinkTime": "100ms"
	}`)
	cfg, err := LoadConfigFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ClosedLoop == nil || cfg.ClosedLoop.TerminalsPerNode != 4 ||
		cfg.ClosedLoop.ThinkTime != 100*time.Millisecond {
		t.Fatalf("closed loop %+v", cfg.ClosedLoop)
	}
}

func TestLoadConfigFileFaults(t *testing.T) {
	path := writeCfg(t, `{
		"nodes": 2,
		"coupling": "gem",
		"routing": "affinity",
		"faults": {
			"crashes": [{"node": 1, "at": "2s", "repair": "1s"}],
			"messageLossProb": 0.01,
			"diskStalls": [{"file": "ACCOUNT", "at": "3s", "duration": "200ms"}],
			"lockWaitTimeout": "500ms",
			"checkpointInterval": "1s",
			"detectDelay": "25ms"
		}
	}`)
	cfg, err := LoadConfigFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f := cfg.Faults
	if f == nil {
		t.Fatal("Faults not loaded")
	}
	if len(f.Crashes) != 1 || f.Crashes[0].Node != 1 ||
		f.Crashes[0].At != 2*time.Second || f.Crashes[0].Repair != time.Second {
		t.Fatalf("crashes %+v", f.Crashes)
	}
	if len(f.DiskStalls) != 1 || f.DiskStalls[0].File != "ACCOUNT" ||
		f.DiskStalls[0].Duration != 200*time.Millisecond {
		t.Fatalf("stalls %+v", f.DiskStalls)
	}
	if f.MessageLossProb != 0.01 || f.LockWaitTimeout != 500*time.Millisecond ||
		f.CheckpointInterval != time.Second || f.DetectDelay != 25*time.Millisecond {
		t.Fatalf("faults %+v", f)
	}
}

func TestLoadConfigFileErrors(t *testing.T) {
	cases := []string{
		`{"nodes": 1, "coupling": "nope", "routing": "random"}`,
		`{"nodes": 1, "coupling": "gem", "routing": "sideways"}`,
		`{"nodes": 1, "coupling": "gem", "routing": "random", "fileMedium": {"X": "floppy"}}`,
		`{"nodes": 1, "coupling": "gem", "routing": "random", "warmup": "yesterday"}`,
		`{"nodes": 2, "coupling": "gem", "routing": "random", "faults": {"crashes": [{"node": 1, "at": "soon", "repair": "1s"}]}}`,
		`{"nodes": 2, "coupling": "gem", "routing": "random", "faults": {"lockWaitTimeout": "fast"}}`,
		`{"nodes": 1, "unknownField": true}`,
		`{"nodes": 1, "closedLoopTerminals": -3}`,
		`{"nodes": 1, "closedLoopPooled": true}`,
		`{"nodes": 1, "closedLoopTerminals": 2, "closedLoopThinkTime": "-1s"}`,
		`{"nodes": 2, "faults": {"recoveryWorkers": -1}}`,
		`{"nodes": 1, "mpl": 0}`,
		`{"nodes": -2}`,
		`not json at all`,
	}
	for i, content := range cases {
		path := writeCfg(t, content)
		if _, err := LoadConfigFile(path); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	if _, err := LoadConfigFile("/nonexistent/path.json"); err == nil {
		t.Error("expected error for missing file")
	}
}

func TestParseHelpers(t *testing.T) {
	if m, err := ParseMedium("gemwb"); err != nil || m != model.MediumGEMWriteBuffer {
		t.Fatalf("gemwb: %v %v", m, err)
	}
	if c, err := ParseCoupling("lockengine"); err != nil || c != CouplingLockEngine {
		t.Fatalf("lockengine: %v %v", c, err)
	}
	if r, err := ParseRouting("affinity"); err != nil || r != RoutingAffinity {
		t.Fatalf("affinity: %v %v", r, err)
	}
}
