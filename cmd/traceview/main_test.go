package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gemsim/internal/core"
	"gemsim/internal/fault"
	"gemsim/internal/recovery"
	"gemsim/internal/trace"
)

// goldenTrace is the JSONL event trace checked into the core package's
// golden-output tests; it doubles here as a known-valid input.
const goldenTrace = "../../internal/core/testdata/tiny_trace.jsonl"

// goldenTraceLE is the golden trace of a lock-engine run.
const goldenTraceLE = "../../internal/core/testdata/tiny_trace_le.jsonl"

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
		`{"ph":"Z","ts":1,"name":"txn","cat":"txn","track":"t"}`,
		`{"ph":"X","dur":5,"name":"txn","cat":"txn","track":"t","arg":"type=0"}`,
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

// TestValidateRejectsUndeclaredEvents checks one event per case that
// is well formed apart from its schema row: an undeclared name in each
// category, a declared name with the wrong phase, and arguments
// outside a row's closed format.
func TestValidateRejectsUndeclaredEvents(t *testing.T) {
	cases := map[string]string{
		"wrong phase":       `{"ph":"i","ts":1,"name":"txn","cat":"txn","track":"t","arg":"type=0"}`,
		"bad waitfor":       `{"ph":"i","ts":1,"name":"waitfor","cat":"attrib","track":"attrib","arg":"edges=x;waiters=?"}`,
		"bad abort reason":  `{"ph":"i","ts":1,"name":"abort","cat":"txn","track":"t","arg":"bored"}`,
		"bad cc reason":     `{"ph":"i","ts":1,"name":"cc-abort","cat":"cc","track":"t","arg":"deadlock"}`,
		"bad station field": `{"ph":"i","ts":1,"name":"station","cat":"attrib","track":"attrib","arg":"station=cpu0;servers=x"}`,
	}
	for _, e := range trace.Schema {
		cases["unknown "+e.Cat+" name"] = fmt.Sprintf(`{"ph":"%c","ts":1,"dur":1,"name":"bogus","cat":"%s","track":"t"}`, e.Ph, e.Cat)
	}
	for name, line := range cases {
		path := filepath.Join(t.TempDir(), "bad.jsonl")
		if err := os.WriteFile(path, []byte(line+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := run([]string{"-validate", path}); err == nil || !strings.Contains(err.Error(), "1 schema violation(s)") {
			t.Errorf("%s: validate returned %v, want 1 schema violation", name, err)
		}
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

// tracedConfigs are the simulations whose JSONL traces the tests
// below validate: a crash with incremental-reopen recovery, the
// adaptive controller, and the optimistic engines under GEM (OCC) and
// PCL (MV-TO) coupling.
var tracedConfigs = map[string]func() (core.Config, error){
	"recovery": func() (core.Config, error) {
		crashes := []fault.NodeCrash{{Node: 1, At: 2 * time.Second, Repair: 1500 * time.Millisecond}}
		return core.AvailabilityConfig(core.CouplingGEM, recovery.ReopenIncremental, crashes, core.PresetOptions{
			Nodes:   2,
			Warmup:  time.Second,
			Measure: 11 * time.Second,
		}), nil
	},
	"controller": func() (core.Config, error) {
		return core.AdaptiveConfig(core.CouplingGEM, true, core.PresetOptions{
			Warmup:  time.Second,
			Measure: 6 * time.Second,
		}), nil
	},
	"occ": func() (core.Config, error) {
		return core.LoadConfigFile("../../examples/config/occ-skew.json")
	},
	"pcl-mvto": func() (core.Config, error) {
		f := core.ConfigFile{Nodes: 3, Coupling: "pcl", CC: "mvto",
			Skew: &core.SkewFile{BranchTheta: 0.6}, Warmup: "1s", Measure: "6s"}
		return f.ToConfig()
	},
}

var tracedRuns = map[string][]byte{} // name -> JSONL trace, simulated once per test binary

// tracedRun writes the trace of the named configuration into t's
// temporary directory, simulating it on first use, and checks that the
// file passes -validate.
func tracedRun(t *testing.T, name string) string {
	t.Helper()
	data, ok := tracedRuns[name]
	if !ok {
		cfg, err := tracedConfigs[name]()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		cfg.Tracing = &core.TraceConfig{Events: &buf}
		if _, err := core.Run(cfg); err != nil {
			t.Fatal(err)
		}
		data = buf.Bytes()
		tracedRuns[name] = data
	}
	path := filepath.Join(t.TempDir(), name+".jsonl")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-validate", path}); err != nil {
		t.Fatalf("%s trace failed schema validation: %v", name, err)
	}
	return path
}

// TestValidateRecoveryTrace runs a small crash/recovery simulation
// with incremental reopen and checks that the recovery track (phase
// spans, crash/repair/recovered instants, per-worker replay spans,
// on-demand page repairs) conforms to the schema, and that the
// validator rejects names outside the recovery vocabulary.
func TestValidateRecoveryTrace(t *testing.T) {
	data, err := os.ReadFile(tracedRun(t, "recovery"))
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
	data, err := os.ReadFile(tracedRun(t, "controller"))
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

// TestSchemaRowsEmitted checks that every trace.Schema row is emitted
// by a golden trace or one of the traced runs above, so the schema
// declares no event the simulator never writes. The rows in unreached
// need configurations these runs do not have.
func TestSchemaRowsEmitted(t *testing.T) {
	unreached := map[string]string{
		"lock/remote":         "remote lock requests are PCL 2PL; the PCL run uses MV-TO, which takes no locks",
		"gem/page":            "needs a file or log in GEM, or GEM page transfer; these runs keep pages on disk",
		"io/read-hit":         "needs a disk cache (diskCachePages or a cache medium)",
		"io/write-hit":        "needs a disk cache (diskCachePages or a cache medium)",
		"net/drop":            "needs message loss (MessageLossProb)",
		"net/drop-down":       "needs a message addressed to a crashed node; the only crash run is GEM-coupled",
		"control/gla-migrate": "GLA migration is PCL under the controller; the controller run is GEM",
		"control/migrate":     "GLA migration is PCL under the controller; the controller run is GEM",
	}
	paths := []string{goldenTrace, goldenTraceLE}
	for name := range tracedConfigs {
		paths = append(paths, tracedRun(t, name))
	}
	seen := map[string]bool{}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := parse(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range tr.events {
			seen[e.Cat+"/"+e.Name] = true
		}
	}
	for _, e := range trace.Schema {
		key := e.Cat + "/" + e.Name
		if _, skip := unreached[key]; seen[key] == skip {
			t.Errorf("%s: emitted %v, listed as unreached %v", key, seen[key], skip)
		}
	}
}
