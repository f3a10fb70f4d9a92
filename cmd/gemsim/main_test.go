package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gemsim/internal/core"
	"gemsim/internal/sweep"
)

func TestRunBasicFlags(t *testing.T) {
	if err := run([]string{"-nodes", "1", "-warmup", "200ms", "-measure", "500ms"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunVerbosePCL(t *testing.T) {
	args := []string{"-nodes", "2", "-coupling", "pcl", "-routing", "random",
		"-force", "-warmup", "200ms", "-measure", "500ms", "-v"}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
}

func TestRunLockEngine(t *testing.T) {
	args := []string{"-nodes", "2", "-coupling", "le", "-force",
		"-warmup", "200ms", "-measure", "500ms"}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
}

func TestRunBTMedium(t *testing.T) {
	args := []string{"-nodes", "1", "-bt-medium", "nvcache",
		"-warmup", "200ms", "-measure", "500ms"}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
}

func TestRunClosedLoop(t *testing.T) {
	args := []string{"-nodes", "1", "-terminals", "4", "-think", "50ms",
		"-warmup", "200ms", "-measure", "500ms"}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
}

func TestRunConfigFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.json")
	content := `{"nodes":1,"coupling":"gem","routing":"affinity","warmup":"200ms","measure":"500ms"}`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-config", path}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-coupling", "warp"},
		{"-routing", "sideways"},
		{"-bt-medium", "floppy"},
		{"-coupling", "le"}, // lock engine without -force
		{"-trace", "/nonexistent.trc"},
	} {
		if err := run(append(args, "-warmup", "100ms", "-measure", "200ms")); err == nil {
			t.Errorf("args %v: expected error", args)
		}
	}
}

func TestParseMediumNames(t *testing.T) {
	for _, name := range []string{"disk", "vcache", "nvcache", "gem"} {
		if _, _, err := parseArgs([]string{"-bt-medium", name}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, _, err := parseArgs([]string{"-bt-medium", "tape"}); err == nil {
		t.Error("expected error for unknown medium")
	}
}

func TestRunRejectsContradictoryFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-mpl", "0"},
		{"-mpl", "-8"},
		{"-trace-out", "out.jsonl", "-timeseries", "out.jsonl"},
		{"-trace-out", "p.out", "-memprofile", "p.out"},
		{"-timeseries", "p.out", "-cpuprofile", "p.out"},
		{"-cpuprofile", "p.out", "-memprofile", "p.out"},
		{"-skew", "0.8", "-trace", "/nonexistent.trc"},
		{"-skew", "1.5"},
		{"-quiet", "-v"},
		{"-coupling", "le", "-force", "-cc", "occ"},
		{"-cc", "mvto", "-force"},
		{"-cc", "occ", "-check"},
		{"-terminals", "-3"},
		{"-think", "5s"},
		{"-terminals", "4", "-think", "-1s"},
		{"-recovery-workers", "-1"},
		{"-attrib", "-attrib-off"},
		{"-phases", "-attrib-off"},
		{"-config", writeConfig(t, `{"nodes":2}`), "-coupling", "warp"},
	} {
		if err := run(append(args, "-warmup", "100ms", "-measure", "200ms")); err == nil {
			t.Errorf("args %v: expected error", args)
		}
	}
}

// TestRunWritesProfiles checks that -cpuprofile and -memprofile each
// write a gzip-compressed pprof file.
func TestRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	args := []string{"-nodes", "1", "-warmup", "200ms", "-measure", "500ms", "-quiet",
		"-cpuprofile", cpu, "-memprofile", mem}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
			t.Errorf("%s: %d bytes, want a non-empty gzip file", filepath.Base(path), len(b))
		}
	}
}

func writeConfig(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "c.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestFlagsOverrideConfigFile checks that explicitly set configuration
// flags apply on top of a -config file and unset ones leave it alone.
func TestFlagsOverrideConfigFile(t *testing.T) {
	path := writeConfig(t, `{"nodes":3,"coupling":"pcl","routing":"random","warmup":"1s","measure":"2s","attribution":{"off":true}}`)
	cfg, _, err := parseArgs([]string{"-config", path, "-coupling", "gem", "-buffer", "300", "-attrib-off=false"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Nodes != 3 || cfg.Coupling != core.CouplingGEM || cfg.Routing != core.RoutingRandom ||
		cfg.BufferPages != 300 || cfg.Measure != 2*time.Second || cfg.Attribution.Off {
		t.Fatalf("cfg %+v", cfg)
	}
}

func TestRunSkewedAdaptive(t *testing.T) {
	args := []string{"-nodes", "2", "-skew", "0.8", "-account-skew", "0.4",
		"-adaptive", "-warmup", "300ms", "-measure", "900ms", "-quiet"}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
}

// flagLines pairs every gemsim command line used by the tests above and
// by the CI workflow with the -config file describing the same
// configuration (output flags select no configuration and have no JSON
// counterpart).
var flagLines = []struct {
	args string
	json string
}{
	{"-nodes 1 -warmup 200ms -measure 500ms",
		`{"nodes":1,"warmup":"200ms","measure":"500ms"}`},
	{"-nodes 2 -coupling pcl -routing random -force -warmup 200ms -measure 500ms -v",
		`{"nodes":2,"coupling":"pcl","routing":"random","force":true,"warmup":"200ms","measure":"500ms"}`},
	{"-nodes 2 -coupling le -force -warmup 200ms -measure 500ms",
		`{"nodes":2,"coupling":"le","force":true,"warmup":"200ms","measure":"500ms"}`},
	{"-nodes 1 -bt-medium nvcache -warmup 200ms -measure 500ms",
		`{"nodes":1,"fileMedium":{"BRANCH/TELLER":"nvcache"},"warmup":"200ms","measure":"500ms"}`},
	{"-nodes 1 -terminals 4 -think 50ms -warmup 200ms -measure 500ms",
		`{"nodes":1,"closedLoopTerminals":4,"closedLoopThinkTime":"50ms","warmup":"200ms","measure":"500ms"}`},
	{"-nodes 2 -skew 0.8 -account-skew 0.4 -adaptive -warmup 300ms -measure 900ms -quiet",
		`{"nodes":2,"skew":{"branchTheta":0.8,"accountTheta":0.4},"control":{},"warmup":"300ms","measure":"900ms"}`},
	{"-nodes 4 -warmup 1s -measure 12s -seed 7 -quiet -mtbf 8s -mttr 1s -reopen incremental -recovery-workers 4 -trace-out rec.jsonl",
		`{"nodes":4,"warmup":"1s","measure":"12s","seed":7,"faults":{"mtbf":"8s","mttr":"1s","reopen":"incremental","recoveryWorkers":4}}`},
	{"-nodes 2 -warmup 1s -measure 6s -quiet -cc occ -skew 0.6 -trace-out ccocc.jsonl",
		`{"nodes":2,"warmup":"1s","measure":"6s","cc":"occ","skew":{"branchTheta":0.6}}`},
	{"-nodes 3 -coupling pcl -cc mvto -skew 0.6 -warmup 1s -measure 6s -quiet -trace-out ccpcl.jsonl",
		`{"nodes":3,"coupling":"pcl","cc":"mvto","skew":{"branchTheta":0.6},"warmup":"1s","measure":"6s"}`},
	{"-nodes 4 -terminals 500 -think 5s -warmup 1s -measure 4s -v",
		`{"nodes":4,"closedLoopTerminals":500,"closedLoopThinkTime":"5s","warmup":"1s","measure":"4s"}`},
	{"-nodes 4 -warmup 1s -measure 8s -quiet -skew 0.8 -adaptive -trace-out ctl.jsonl",
		`{"nodes":4,"warmup":"1s","measure":"8s","skew":{"branchTheta":0.8},"control":{}}`},
	{"-nodes 2 -warmup 1s -measure 4s -trace-out smoke.json -trace-format perfetto -timeseries smoke-ts.jsonl -phases",
		`{"nodes":2,"warmup":"1s","measure":"4s"}`},
	{"-nodes 2 -warmup 1s -measure 4s -quiet -trace-out smoke.jsonl",
		`{"nodes":2,"warmup":"1s","measure":"4s"}`},
	{"-nodes 2 -warmup 1s -measure 4s -quiet -phases",
		`{"nodes":2,"warmup":"1s","measure":"4s"}`},
	{"-nodes 1 -warmup 200ms -measure 500ms -quiet -cpuprofile cpu.pprof -memprofile mem.pprof",
		`{"nodes":1,"warmup":"200ms","measure":"500ms"}`},
	{"-nodes 4 -warmup 1s -measure 4s -quiet -memprofile mem.pprof",
		`{"nodes":4,"warmup":"1s","measure":"4s"}`},
}

// TestFlagLinesMatchConfigFiles checks that each flag line builds the
// same configuration as its -config file.
func TestFlagLinesMatchConfigFiles(t *testing.T) {
	dir := t.TempDir()
	for i, fl := range flagLines {
		fromFlags, _, err := parseArgs(strings.Fields(fl.args))
		if err != nil {
			t.Fatalf("%s: %v", fl.args, err)
		}
		path := filepath.Join(dir, "c.json")
		if err := os.WriteFile(path, []byte(fl.json), 0o644); err != nil {
			t.Fatal(err)
		}
		fromFile, err := core.LoadConfigFile(path)
		if err != nil {
			t.Fatalf("line %d config file: %v", i, err)
		}
		if a, b := sweep.ConfigDigest(&fromFlags), sweep.ConfigDigest(&fromFile); a != b {
			t.Errorf("%s\n flags:  %s\n config: %s", fl.args, a, b)
		}
	}
}
