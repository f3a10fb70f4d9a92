package main

import (
	"os"
	"path/filepath"
	"testing"
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
		if _, err := parseMedium(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := parseMedium("tape"); err == nil {
		t.Error("expected error for unknown medium")
	}
}

func TestRunRejectsContradictoryFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-mpl", "0"},
		{"-mpl", "-8"},
		{"-trace-out", "out.jsonl", "-timeseries", "out.jsonl"},
		{"-skew", "0.8", "-trace", "/nonexistent.trc"},
		{"-skew", "1.5"},
		{"-quiet", "-v"},
		{"-coupling", "le", "-force", "-cc", "occ"},
		{"-cc", "mvto", "-force"},
		{"-cc", "occ", "-check"},
	} {
		if err := run(append(args, "-warmup", "100ms", "-measure", "200ms")); err == nil {
			t.Errorf("args %v: expected error", args)
		}
	}
}

func TestRunSkewedAdaptive(t *testing.T) {
	args := []string{"-nodes", "2", "-skew", "0.8", "-account-skew", "0.4",
		"-adaptive", "-warmup", "300ms", "-measure", "900ms", "-quiet"}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
}
