package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gemsim/internal/core"
)

// capture runs the command with os.Stdout and os.Stderr redirected and
// returns what it wrote to each.
func capture(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	read := func(f *os.File, out *string, done chan<- struct{}) {
		b, _ := io.ReadAll(f)
		*out = string(b)
		close(done)
	}
	outR, outW, perr := os.Pipe()
	if perr != nil {
		t.Fatal(perr)
	}
	errR, errW, perr := os.Pipe()
	if perr != nil {
		t.Fatal(perr)
	}
	outDone, errDone := make(chan struct{}), make(chan struct{})
	go read(outR, &stdout, outDone)
	go read(errR, &stderr, errDone)
	saved, savedErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = outW, errW
	err = run(args)
	os.Stdout, os.Stderr = saved, savedErr
	outW.Close()
	errW.Close()
	<-outDone
	<-errDone
	return stdout, stderr, err
}

func TestListAndTable(t *testing.T) {
	out, _, err := capture(t, "-list")
	if err != nil {
		t.Fatal(err)
	}
	presets, err := core.Presets(1, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range presets {
		want := fmt.Sprintf("%-20s %s (%d configs;", p.ID, p.Summary, len(p.Rows))
		if !strings.Contains(out, want) {
			t.Errorf("-list lacks the %s preset line %q:\n%s", p.ID, want, out)
		}
	}
	if err := run([]string{"-table", "4.1"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-table", "9.9"}); err == nil {
		t.Fatal("expected error for unknown table")
	}
}

func TestUnknownFigure(t *testing.T) {
	if err := run([]string{"-fig", "bogus"}); err == nil {
		t.Fatal("expected error")
	}
}

func TestNothingToDo(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("expected usage error")
	}
}

func TestResumeRequiresStore(t *testing.T) {
	if err := run([]string{"-resume", "-fig", "4.1"}); err == nil || !strings.Contains(err.Error(), "-store") {
		t.Fatalf("-resume without -store must fail, got %v", err)
	}
}

func TestSweepSpecCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation runs; skipped with -short")
	}
	dir := t.TempDir()
	spec := filepath.Join(dir, "spec.json")
	body := `{
		"name": "cli-test",
		"metric": "tput",
		"base": {"warmup": "250ms", "measure": "1s"},
		"axes": [
			{"field": "nodes", "values": [1]},
			{"field": "coupling", "values": ["gem", "pcl"]}
		]
	}`
	if err := os.WriteFile(spec, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	store := filepath.Join(dir, "results.jsonl")
	if err := run([]string{"-sweep", spec, "-jobs", "2", "-store", store}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(store)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n != 2 {
		t.Fatalf("store holds %d lines, want 2", n)
	}
	// A second -resume invocation re-runs nothing and appends nothing.
	if err := run([]string{"-sweep", spec, "-jobs", "2", "-store", store, "-resume"}); err != nil {
		t.Fatal(err)
	}
	again, err := os.ReadFile(store)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(data) {
		t.Fatalf("resume appended %d bytes to a complete store", len(again)-len(data))
	}
}

func TestSweepSpecMissingFile(t *testing.T) {
	if err := run([]string{"-sweep", filepath.Join(t.TempDir(), "nope.json")}); err == nil {
		t.Fatal("expected error for a missing spec file")
	}
}

func TestSanitizeLabel(t *testing.T) {
	if got := sanitizeLabel("fig/4.1/B,T in GEM/n=4/r0"); got != "fig-4.1-B-T-in-GEM-n-4-r0" {
		t.Fatalf("sanitized %q", got)
	}
	if got := sanitizeLabel("safe-label_1.x"); got != "safe-label_1.x" {
		t.Fatalf("safe label changed: %q", got)
	}
}

func TestTraceSinkCollision(t *testing.T) {
	dir := t.TempDir()
	sink := &traceSink{timeseries: filepath.Join(dir, "ts.jsonl"), interval: time.Second}
	var cfg core.Config
	sink.attach(&cfg, "a/b")
	sink.attach(&cfg, "a b") // sanitizes to the same "a-b"
	if sink.err == nil {
		t.Fatal("colliding labels must be an error")
	}
	msg := sink.err.Error()
	if !strings.Contains(msg, `"a/b"`) || !strings.Contains(msg, `"a b"`) {
		t.Fatalf("collision error must name both labels: %s", msg)
	}
	sink.files = nil
	sink.err = nil
	sink.attach(&cfg, "a-c")
	if sink.err != nil {
		t.Fatalf("distinct label rejected: %v", sink.err)
	}
	if err := sink.closeAll(); err != nil {
		t.Fatal(err)
	}
}

// TestPresetRowFailure: a preset row whose sanity check fails is a
// failed run. The table still prints, with "-" for that row, the
// failure names the row on stderr, and the command fails. Seed 3 draws
// a calm-regime crash whose disk-log recovery does not finish inside
// the quick availability window.
func TestPresetRowFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation runs; skipped with -short")
	}
	out, errOut, err := capture(t, "-fig", "availability", "-quick", "-seed", "3")
	if err == nil || !strings.Contains(err.Error(), "runs failed") {
		t.Fatalf("want a failed-runs error, got %v", err)
	}
	if !strings.Contains(errOut, "availability/calm/") || !strings.Contains(errOut, "crashes recovered in the window") {
		t.Fatalf("stderr does not name the failed row:\n%s", errOut)
	}
	if !strings.Contains(out, "Availability: stochastic crashes") || !strings.Contains(out, "  -  ") {
		t.Fatalf("table with failed rows missing from stdout:\n%s", out)
	}
}

func TestFigAdaptiveQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation runs; skipped with -short")
	}
	if err := run([]string{"-fig", "adaptive", "-quick"}); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptiveSweepAxes(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation runs; skipped with -short")
	}
	dir := t.TempDir()
	spec := filepath.Join(dir, "spec.json")
	body := `{
		"name": "adaptive-axes",
		"metric": "tput",
		"base": {"warmup": "250ms", "measure": "1s"},
		"axes": [
			{"field": "nodes", "values": [2]},
			{"field": "skew", "values": [0.8]},
			{"field": "drift", "values": [true]},
			{"field": "control", "values": [false, true]}
		]
	}`
	if err := os.WriteFile(spec, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-sweep", spec, "-jobs", "2"}); err != nil {
		t.Fatal(err)
	}
}
