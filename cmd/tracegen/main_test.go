package main

import (
	"os"
	"path/filepath"
	"testing"

	"gemsim/internal/workload"
)

func TestGenerateAndInspect(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "t.trc")
	args := []string{"-out", out, "-txns", "500", "-pages", "4000", "-seed", "3"}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-inspect", out}); err != nil {
		t.Fatal(err)
	}
}

// TestSmallTraceScalesScans checks that a small trace keeps its ad-hoc
// scans in proportion: one scan for a dozen transactions, none larger
// than the page universe. With the calibrated trace's 8 scans of up to
// 11200 references it would hold about 50000 references.
func TestSmallTraceScalesScans(t *testing.T) {
	out := filepath.Join(t.TempDir(), "small.trc")
	args := []string{"-out", out, "-txns", "12", "-pages", "400", "-files", "4", "-types", "3", "-meanrefs", "4"}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	trace, err := workload.ReadTraceFile(out)
	if err != nil {
		t.Fatal(err)
	}
	s := trace.Stats()
	if s.Transactions != 12 || s.LargestTxn > 400 || s.References > 12*40 {
		t.Fatalf("%d transactions, %d references, largest %d: want 12, at most 480, at most 400",
			s.Transactions, s.References, s.LargestTxn)
	}
}

func TestGenerateTextFormat(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "t.txt")
	if err := run([]string{"-out", out, "-txns", "300", "-pages", "3000", "-text"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-inspect", out, "-text"}); err != nil {
		t.Fatal(err)
	}
}

func TestNoArgsIsError(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("expected usage error")
	}
}

func TestInspectMissingFile(t *testing.T) {
	if err := run([]string{"-inspect", "/nonexistent.trc"}); err == nil {
		t.Fatal("expected error")
	}
}
