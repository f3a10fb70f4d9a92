package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gemsim/internal/core"
	"gemsim/internal/fault"
	"gemsim/internal/recovery"
)

// goldenTrace is the JSONL event trace checked into the core package's
// golden-output tests; it doubles here as a known-valid input.
const goldenTrace = "../../internal/core/testdata/tiny_trace.jsonl"

func TestValidateGoldenTrace(t *testing.T) {
	if err := run([]string{"-validate", goldenTrace}); err != nil {
		t.Fatalf("golden trace failed validation: %v", err)
	}
}

func TestSummarizeGoldenTrace(t *testing.T) {
	if err := run([]string{"-top", "3", goldenTrace}); err != nil {
		t.Fatalf("summarize failed on golden trace: %v", err)
	}
}

func TestValidateRejectsSchemaViolations(t *testing.T) {
	// One unknown phase, one span without ts, one span without name,
	// one span with a category outside the emitted vocabulary: four
	// violations the validator must report, each with its line number.
	bad := strings.Join([]string{
		`{"ph":"Z","ts":1,"name":"x","track":"t"}`,
		`{"ph":"X","dur":5,"name":"x","cat":"txn","track":"t"}`,
		`{"ph":"X","ts":1,"dur":5,"cat":"txn","track":"t"}`,
		`{"ph":"X","ts":1,"dur":5,"name":"x","cat":"bogus","track":"t"}`,
	}, "\n")
	path := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-validate", path})
	if err == nil {
		t.Fatal("validate accepted a trace with schema violations")
	}
	if !strings.Contains(err.Error(), "4 schema violation(s)") {
		t.Fatalf("error %q, want 4 schema violations reported", err)
	}
}

func TestParseErrorOnMalformedJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage.jsonl")
	if err := os.WriteFile(path, []byte("{\"ph\":\"X\"\nnot json at all\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-validate", path})
	if err == nil {
		t.Fatal("parse accepted malformed JSON")
	}
	if !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("error %q, want the offending line number", err)
	}
}

func TestMissingFileIsAnError(t *testing.T) {
	if err := run([]string{filepath.Join(t.TempDir(), "nope.jsonl")}); err == nil {
		t.Fatal("run succeeded on a missing file")
	}
}

// TestValidateRecoveryTrace runs a small crash/recovery simulation
// with incremental reopen and checks that the recovery track (phase
// spans, crash/repair/recovered instants, per-worker replay spans,
// on-demand page repairs) conforms to the schema, and that the
// validator rejects names outside the recovery vocabulary.
func TestValidateRecoveryTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "recovery.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	crashes := []fault.NodeCrash{{Node: 1, At: 2 * time.Second, Repair: 1500 * time.Millisecond}}
	cfg := core.AvailabilityConfig(core.CouplingGEM, recovery.ReopenIncremental, crashes, core.PresetOptions{
		Nodes:   2,
		Warmup:  time.Second,
		Measure: 11 * time.Second,
	})
	cfg.Tracing = &core.TraceConfig{Events: f}
	if _, err := core.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-validate", path}); err != nil {
		t.Fatalf("recovery trace failed schema validation: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	trace := string(data)
	for _, want := range []string{
		`"cat":"fault","name":"crash"`, `"cat":"fault","name":"repair"`,
		`"cat":"recovery","name":"detect"`, `"cat":"recovery","name":"lock-recovery"`,
		`"cat":"recovery","name":"log-scan"`, `"cat":"recovery","name":"replay"`,
		`"cat":"recovery","name":"reopen"`, `"cat":"recovery","name":"page-repair"`,
		`"cat":"recovery","name":"recovered"`,
	} {
		if !strings.Contains(trace, want) {
			t.Errorf("trace missing recovery event %s", want)
		}
	}
	// A span name outside the vocabulary must be a schema violation.
	bad := filepath.Join(t.TempDir(), "badrec.jsonl")
	line := `{"ph":"X","ts":1,"dur":5,"name":"undo","cat":"recovery","track":"failover"}`
	if err := os.WriteFile(bad, []byte(line+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// The line is schema-valid apart from its name, so the single
	// violation is the vocabulary check.
	if err := run([]string{"-validate", bad}); err == nil || !strings.Contains(err.Error(), "1 schema violation(s)") {
		t.Fatalf("validator accepted an unknown recovery span: %v", err)
	}
}

// TestValidateControllerTrace runs a small adaptive simulation and
// checks that the controller's trace output (throttle/probe/reroute
// instants, MPL counters, all on the "control" track) conforms to the
// trace_event schema the validator enforces.
func TestValidateControllerTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "adaptive.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.AdaptiveConfig(core.CouplingGEM, true, core.PresetOptions{
		Warmup:  time.Second,
		Measure: 6 * time.Second,
	})
	cfg.Tracing = &core.TraceConfig{Events: f}
	if _, err := core.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-validate", path}); err != nil {
		t.Fatalf("controller trace failed schema validation: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	trace := string(data)
	if !strings.Contains(trace, `"track":"control"`) {
		t.Error("trace has no events on the control track")
	}
	actions := 0
	for _, name := range []string{`"name":"throttle"`, `"name":"probe"`, `"name":"reroute"`} {
		if strings.Contains(trace, name) {
			actions++
		}
	}
	if actions == 0 {
		t.Error("trace records no controller actions (throttle/probe/reroute)")
	}
	if !strings.Contains(trace, `"name":"mpl`) && !strings.Contains(trace, `"name":"overrides"`) {
		t.Error("trace records no controller counters")
	}
}
