package sweep

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gemsim/internal/core"
	"gemsim/internal/recovery"
)

func writeSpec(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadSpecExample(t *testing.T) {
	// The shipped example must stay loadable and expand as documented.
	s, err := LoadSpec(filepath.Join("..", "..", "examples", "sweep", "buffer-coupling.json"))
	if err != nil {
		t.Fatal(err)
	}
	runs, err := s.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 4*2*2*3 {
		t.Fatalf("%d runs, want 48", len(runs))
	}
}

func TestSpecExpansion(t *testing.T) {
	s := &Spec{
		Name:         "m",
		Base:         core.ConfigFile{Routing: "random"},
		Axes:         []Axis{{Field: "coupling", Values: rawValues(t, `"gem"`, `"pcl"`)}, {Field: "nodes", Values: rawValues(t, "1", "4")}},
		Replications: 2,
	}
	runs, err := s.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 8 {
		t.Fatalf("%d runs", len(runs))
	}
	// "nodes" becomes the row axis even though it is declared second.
	first := runs[0]
	if first.Row != "n=1" || first.Cols[0] != "gem" {
		t.Fatalf("first run row=%q col=%q", first.Row, first.Cols[0])
	}
	if first.Key != "m/gem/n=1/r0" {
		t.Fatalf("key %q", first.Key)
	}
	if first.Config.Coupling != core.CouplingGEM || first.Config.Routing != core.RoutingRandom {
		t.Fatal("axis/base values not applied")
	}
	if first.Config.Seed == runs[1].Config.Seed {
		t.Fatal("replicas must have distinct derived seeds")
	}
	seen := make(map[string]bool)
	for _, r := range runs {
		if seen[r.Key] {
			t.Fatalf("duplicate key %s", r.Key)
		}
		seen[r.Key] = true
	}
}

func TestSpecMediumAxis(t *testing.T) {
	s := &Spec{
		Name: "med",
		Axes: []Axis{{Field: "medium.BRANCH/TELLER", Values: rawValues(t, `"disk"`, `"gem"`)}},
	}
	runs, err := s.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("%d runs", len(runs))
	}
	if len(runs[1].Config.FileMedium) != 1 {
		t.Fatal("medium axis not applied")
	}
	if runs[0].Row != "BRANCH/TELLER=disk" {
		t.Fatalf("row %q", runs[0].Row)
	}
}

func TestSpecValidation(t *testing.T) {
	for name, body := range map[string]string{
		"unknown-field":  `{"name":"x","axes":[{"field":"warp","values":[1]}]}`,
		"unknown-metric": `{"name":"x","metric":"bogus","axes":[{"field":"nodes","values":[1]}]}`,
		"no-name":        `{"axes":[{"field":"nodes","values":[1]}]}`,
		"no-axes":        `{"name":"x"}`,
		"empty-values":   `{"name":"x","axes":[{"field":"nodes","values":[]}]}`,
		"dup-axis":       `{"name":"x","axes":[{"field":"nodes","values":[1]},{"field":"nodes","values":[2]}]}`,
		"bad-rowaxis":    `{"name":"x","rowAxis":"coupling","axes":[{"field":"nodes","values":[1]}]}`,
		"wrong-type":     `{"name":"x","axes":[{"field":"nodes","values":["four"]}]}`,
		"unknown-json":   `{"name":"x","surprise":1,"axes":[{"field":"nodes","values":[1]}]}`,
	} {
		path := writeSpec(t, body)
		s, err := LoadSpec(path)
		if err == nil {
			// Type errors only surface during expansion.
			_, err = s.Runs()
		}
		if err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
}

func TestRunSpecDeterministicAcrossJobs(t *testing.T) {
	s := &Spec{
		Name:         "det",
		Metric:       "tput",
		Replications: 2,
		Axes: []Axis{
			{Field: "nodes", Values: rawValues(t, "1", "2")},
			{Field: "force", Values: rawValues(t, "false", "true")},
		},
	}
	var outputs []string
	for _, jobs := range []int{1, 8} {
		tbl, sum, err := RunSpec(s, Engine{Jobs: jobs, exec: fakeExec})
		if err != nil {
			t.Fatal(err)
		}
		if sum.Failed != 0 || sum.Total != 8 {
			t.Fatal(sum.String())
		}
		outputs = append(outputs, tbl.Render()+tbl.CSV())
	}
	if outputs[0] != outputs[1] {
		t.Fatalf("spec tables differ across jobs:\n%s\n--- vs ---\n%s", outputs[0], outputs[1])
	}
	if !strings.Contains(outputs[0], "FORCE") || !strings.Contains(outputs[0], "NOFORCE") {
		t.Fatalf("column labels missing:\n%s", outputs[0])
	}
}

func rawValues(t *testing.T, vals ...string) []json.RawMessage {
	t.Helper()
	out := make([]json.RawMessage, len(vals))
	for i, v := range vals {
		out[i] = json.RawMessage(v)
	}
	return out
}

func TestSpecAdaptiveAxes(t *testing.T) {
	s := &Spec{
		Name: "adapt",
		Base: core.ConfigFile{Nodes: 2},
		Axes: []Axis{
			{Field: "skew", Values: rawValues(t, "0", "0.8")},
			{Field: "drift", Values: rawValues(t, "false", "true")},
			{Field: "control", Values: rawValues(t, "false", "true")},
		},
	}
	runs, err := s.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 8 {
		t.Fatalf("%d runs, want 8", len(runs))
	}
	byKey := make(map[string]Run, len(runs))
	for _, r := range runs {
		byKey[r.Key] = r
	}
	// Uniform/steady/static point: no skew, no controller.
	base := byKey["adapt/uniform/steady/static/r0"]
	if base.Key == "" {
		t.Fatalf("missing baseline point; keys: %v", keysOf(byKey))
	}
	if base.Config.Workload.DebitCredit != nil || base.Config.Control != nil {
		t.Fatal("baseline point must stay at the static uniform configuration")
	}
	// Fully adaptive point: skewed params, drift schedule, controller.
	adapt := byKey["adapt/skew=0.8/drift/adaptive/r0"]
	if adapt.Key == "" {
		t.Fatalf("missing adaptive point; keys: %v", keysOf(byKey))
	}
	dc := adapt.Config.Workload.DebitCredit
	if dc == nil || dc.Skew == nil || dc.Skew.BranchTheta != 0.8 || len(dc.Skew.Drift) != 2 {
		t.Fatalf("skew+drift axes not applied: %+v", dc)
	}
	if adapt.Config.Control == nil || !adapt.Config.Control.Admission {
		t.Fatal("control axis not applied")
	}
	// Drift without skew still yields a (rotating, uniform) skew config.
	drift := byKey["adapt/uniform/drift/static/r0"]
	if drift.Config.Workload.DebitCredit == nil || drift.Config.Workload.DebitCredit.Skew == nil {
		t.Fatal("drift-only point lost its drift schedule")
	}
	// An out-of-range theta is rejected at expansion time.
	bad := &Spec{Name: "bad", Axes: []Axis{{Field: "skew", Values: rawValues(t, "1.2")}}}
	if _, err := bad.Runs(); err == nil {
		t.Fatal("theta 1.2 accepted")
	}
}

func TestSpecRecoveryAxes(t *testing.T) {
	s := &Spec{
		Name: "recov",
		Base: core.ConfigFile{Nodes: 2},
		Axes: []Axis{
			{Field: "reopen", Values: rawValues(t, `"offline"`, `"incremental"`)},
			{Field: "recoveryWorkers", Values: rawValues(t, "4")},
			{Field: "mtbf", Values: rawValues(t, `"8s"`)},
			{Field: "mttr", Values: rawValues(t, `"800ms"`)},
		},
	}
	runs, err := s.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("%d runs, want 2", len(runs))
	}
	byKey := make(map[string]Run, len(runs))
	for _, r := range runs {
		byKey[r.Key] = r
	}
	inc := byKey["recov/reopen=incremental/workers=4/mtbf=8s/mttr=800ms/r0"]
	if inc.Key == "" {
		t.Fatalf("missing incremental point; keys: %v", keysOf(byKey))
	}
	f := inc.Config.Faults
	if f == nil || f.Reopen != recovery.ReopenIncremental || f.RecoveryWorkers != 4 ||
		f.MTBF != 8*time.Second || f.MTTR != 800*time.Millisecond {
		t.Fatalf("recovery axes not applied: %+v", f)
	}
	for name, spec := range map[string]*Spec{
		"bad-reopen":  {Name: "x", Axes: []Axis{{Field: "reopen", Values: rawValues(t, `"eager"`)}}},
		"bad-workers": {Name: "x", Axes: []Axis{{Field: "recoveryWorkers", Values: rawValues(t, "-1")}}},
		"bad-mtbf":    {Name: "x", Axes: []Axis{{Field: "mtbf", Values: rawValues(t, `"-3s"`)}}},
		"bad-mttr":    {Name: "x", Axes: []Axis{{Field: "mttr", Values: rawValues(t, `"soon"`)}}},
	} {
		if _, err := spec.Runs(); err == nil {
			t.Errorf("%s: invalid axis value accepted", name)
		}
	}
}

func keysOf(m map[string]Run) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestSpecRunsLeaveBaseUnchanged checks that axis values are applied to
// copies: expanding a spec must not write through to its base's maps
// and blocks, and every run keeps the base settings no axis sets.
func TestSpecRunsLeaveBaseUnchanged(t *testing.T) {
	s, err := LoadSpec(filepath.Join("testdata", "axes_all.json"))
	if err != nil {
		t.Fatal(err)
	}
	s.Base.Faults = &core.FaultsFile{LockWaitTimeout: "1s"}
	s.Base.FileMedium = map[string]string{"ACCOUNT": "disk"}
	s.Base.Control = &core.ControlFile{MinMPL: 2}
	before, _ := json.Marshal(s.Base)
	runs, err := s.Runs()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		c := &r.Config
		if c.Faults.LockWaitTimeout != time.Second || len(c.FileMedium) != 2 || c.Control.MinMPL != 2 {
			t.Fatalf("run %s lost base settings: faults %+v, media %v, control %+v", r.Key, c.Faults, c.FileMedium, c.Control)
		}
	}
	if after, _ := json.Marshal(s.Base); string(after) != string(before) {
		t.Fatalf("expansion changed the base:\n before %s\n after  %s", before, after)
	}
}
