package main

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"gemsim/internal/core"
	"gemsim/internal/sweep"
	"gemsim/internal/workload"
)

// knobCases sets every knob of core.Knobs once. Each case gives the
// knob's flags, the equivalent JSON keys, and (for sweepable knobs)
// one axis value with the JSON keys the spec base needs beside it.
// TRACE stands for a generated trace file.
var knobCases = map[string]struct {
	flags, json string
	axis, value string
	base        string
}{
	"nodes":            {"-nodes 3", `"nodes":3`, "nodes", `3`, ``},
	"rate":             {"-rate 80", `"arrivalRatePerNode":80`, "rate", `80`, ``},
	"coupling":         {"-coupling pcl", `"coupling":"pcl"`, "coupling", `"pcl"`, ``},
	"cc":               {"-cc occ", `"cc":"occ"`, "cc", `"occ"`, ``},
	"force":            {"-force", `"force":true`, "force", `true`, ``},
	"routing":          {"-routing random", `"routing":"random"`, "routing", `"random"`, ``},
	"buffer":           {"-buffer 300", `"bufferPages":300`, "bufferPages", `300`, ``},
	"mpl":              {"-mpl 32", `"mpl":32`, "mpl", `32`, ``},
	"bt-medium":        {"-bt-medium gem", `"fileMedium":{"BRANCH/TELLER":"gem"}`, "medium.BRANCH/TELLER", `"gem"`, ``},
	"log-gem":          {"-log-gem", `"logInGEM":true`, "logInGEM", `true`, ``},
	"log-merge":        {"-log-gem -log-merge", `"logInGEM":true,"globalLogMerge":true`, "", ``, ``},
	"gem-messaging":    {"-gem-messaging", `"gemMessaging":true`, "gemMessaging", `true`, ``},
	"skew":             {"-skew 0.5", `"skew":{"branchTheta":0.5}`, "skew", `0.5`, ``},
	"account-skew":     {"-account-skew 0.3", `"skew":{"accountTheta":0.3}`, "", ``, ``},
	"drift":            {"", `"skew":{"drift":[{"at":"8s","rotate":0.25},{"at":"16s","rotate":0.25}]}`, "drift", `true`, ``},
	"adaptive":         {"-adaptive", `"control":{}`, "control", `true`, ``},
	"terminals":        {"-terminals 4", `"closedLoopTerminals":4`, "terminals", `4`, ``},
	"think":            {"-terminals 4 -think 200ms", `"closedLoopTerminals":4,"closedLoopThinkTime":"200ms"`, "think", `"200ms"`, `"closedLoopTerminals":4`},
	"mtbf":             {"-nodes 2 -mttr 1s -mtbf 5s", `"nodes":2,"faults":{"mtbf":"5s","mttr":"1s"}`, "mtbf", `"5s"`, `"nodes":2,"faults":{"mttr":"1s"}`},
	"mttr":             {"-nodes 2 -mtbf 5s -mttr 1s", `"nodes":2,"faults":{"mtbf":"5s","mttr":"1s"}`, "mttr", `"1s"`, `"nodes":2,"faults":{"mtbf":"5s"}`},
	"reopen":           {"-reopen incremental", `"faults":{"reopen":"incremental"}`, "reopen", `"incremental"`, ``},
	"recovery-workers": {"-recovery-workers 3", `"faults":{"recoveryWorkers":3}`, "recoveryWorkers", `3`, ``},
	"trace":            {"-trace TRACE", `"traceFile":"TRACE"`, "", ``, ``},
	"warmup":           {"-warmup 2s", `"warmup":"2s"`, "", ``, ``},
	"measure":          {"-measure 3s", `"measure":"3s"`, "", ``, ``},
	"seed":             {"-seed 9", `"seed":9`, "", ``, ``},
	"check":            {"-check", `"checkInvariants":true`, "", ``, ``},
	"attrib-off":       {"-attrib-off", `"attribution":{"off":true}`, "", ``, ``},
	"attrib-tolerance": {"-attrib-tolerance 0.1", `"attribution":{"tolerance":0.1}`, "", ``, ``},
}

// TestKnobsAgreeAcrossFlagJSONAndAxis sets each knob through its gemsim
// flag, through its JSON key and through its sweep axis, and requires
// the same configuration from all three.
func TestKnobsAgreeAcrossFlagJSONAndAxis(t *testing.T) {
	p := workload.DefaultTraceGenParams(1)
	p.Transactions = 200
	tr, err := workload.GenerateTrace(p)
	if err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(t.TempDir(), "w.trc")
	if err := tr.WriteFile(tracePath); err != nil {
		t.Fatal(err)
	}
	// gemsim's defaults, which the JSON and axis routes start from too.
	const defaults = `"nodes":1,"warmup":"4s","measure":"16s"`
	decode := func(keys string) core.ConfigFile {
		t.Helper()
		if keys != "" {
			keys = "," + keys
		}
		var f core.ConfigFile
		if err := json.Unmarshal([]byte("{"+defaults+keys+"}"), &f); err != nil {
			t.Fatalf("%s: %v", keys, err)
		}
		return f
	}
	for _, k := range core.Knobs() {
		name := k.Flag
		if name == "" {
			name = k.Axes[0]
		}
		c, ok := knobCases[name]
		switch {
		case !ok:
			t.Errorf("knob %s has no case", name)
			continue
		case (k.Flag != "") != (c.flags != ""), (len(k.Axes) > 0) != (c.axis != ""):
			t.Errorf("knob %s: case does not match its flag/axes", name)
			continue
		}
		c.flags = strings.ReplaceAll(c.flags, "TRACE", tracePath)
		c.json = strings.ReplaceAll(c.json, "TRACE", tracePath)

		f := decode(c.json)
		fromJSON, err := f.ToConfig()
		if err != nil {
			t.Fatalf("%s JSON: %v", name, err)
		}
		want := sweep.ConfigDigest(&fromJSON)
		if c.flags != "" {
			fromFlags, _, err := parseArgs(strings.Fields(c.flags))
			if err != nil {
				t.Fatalf("%s flags: %v", name, err)
			}
			if got := sweep.ConfigDigest(&fromFlags); got != want {
				t.Errorf("%s: flag and JSON differ\n flag: %s\n json: %s", name, got, want)
			}
		}
		if c.axis != "" {
			spec := sweep.Spec{Name: "k", Base: decode(c.base), Axes: []sweep.Axis{{Field: c.axis, Values: []json.RawMessage{json.RawMessage(c.value)}}}}
			runs, err := spec.Runs()
			if err != nil {
				t.Fatalf("%s axis: %v", name, err)
			}
			fromAxis := runs[0].Config
			fromAxis.Seed = fromJSON.Seed // sweeps derive per-run seeds
			if got := sweep.ConfigDigest(&fromAxis); got != want {
				t.Errorf("%s: axis and JSON differ\n axis: %s\n json: %s", name, got, want)
			}
		}
	}
}
