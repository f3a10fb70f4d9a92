package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"gemsim/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace files")

// tinyConfig is a short single-node debit-credit run used by the
// observability tests; small enough that its full event trace stays
// reviewable as a golden file.
func tinyConfig() Config {
	cfg := DefaultDebitCreditConfig(1)
	cfg.ArrivalRatePerNode = 25
	cfg.Warmup = 200 * time.Millisecond
	cfg.Measure = 800 * time.Millisecond
	return cfg
}

// TestTracingDisabledUnchanged checks the zero-cost property at the
// metrics level: enabling the full observability stack (event trace,
// time series, phase accounting) leaves every measured metric exactly
// as in an untraced run of the same configuration.
func TestTracingDisabledUnchanged(t *testing.T) {
	plain, err := Run(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}

	var events, ts bytes.Buffer
	cfg := tinyConfig()
	cfg.Tracing = &TraceConfig{Events: &events, TimeSeries: &ts, SampleInterval: 100 * time.Millisecond}
	traced, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if events.Len() == 0 || ts.Len() == 0 {
		t.Fatal("traced run produced no output")
	}
	if traced.Metrics.Phases == nil || traced.Metrics.Phases.N == 0 {
		t.Fatal("traced run collected no phase breakdown")
	}

	got := traced.Metrics
	got.Phases = nil // the only field tracing is allowed to add
	if !reflect.DeepEqual(got, plain.Metrics) {
		t.Errorf("tracing changed the measured metrics:\ntraced: %+v\nplain:  %+v", got, plain.Metrics)
	}
}

// TestPhaseSumsMatchMeanRT checks the acceptance criterion for the
// response time decomposition: the per-phase means (including the
// residual) sum to the measured mean response time within 1%.
func TestPhaseSumsMatchMeanRT(t *testing.T) {
	cfg := DefaultDebitCreditConfig(2)
	cfg.Tracing = &TraceConfig{} // phase accounting only
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := rep.Metrics.Phases
	if b == nil || b.N == 0 {
		t.Fatal("no phase breakdown collected")
	}
	var sum time.Duration
	for p := trace.Phase(0); p < trace.NumPhases; p++ {
		sum += b.Mean(p)
	}
	mean := rep.Metrics.MeanResponseTime
	if rel := math.Abs(float64(sum-mean)) / float64(mean); rel > 0.01 {
		t.Errorf("phase means sum to %v, mean RT %v (relative error %.4f > 1%%)", sum, mean, rel)
	}
	// The breakdown observes exactly the committed transactions.
	if b.N != rep.Metrics.Commits {
		t.Errorf("breakdown observed %d transactions, committed %d", b.N, rep.Metrics.Commits)
	}
	// Phases other than the residual must carry signal: CPU service and
	// I/O dominate debit-credit on disk-resident files.
	if b.Share(trace.PhaseCPU) <= 0 || b.Share(trace.PhaseIORead) <= 0 {
		t.Errorf("cpu/io-read shares are zero: cpu=%v io=%v", b.Share(trace.PhaseCPU), b.Share(trace.PhaseIORead))
	}
	if b.Share(trace.PhaseOther) > 0.25 {
		t.Errorf("unattributed residual share %.3f exceeds 25%%", b.Share(trace.PhaseOther))
	}
}

// runTinyTraced runs the tiny configuration with a JSONL event trace
// and time series attached and returns both outputs.
func runTinyTraced(t *testing.T) (events, ts []byte) {
	t.Helper()
	var eb, tb bytes.Buffer
	cfg := tinyConfig()
	cfg.Tracing = &TraceConfig{Events: &eb, TimeSeries: &tb, SampleInterval: 200 * time.Millisecond}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	return eb.Bytes(), tb.Bytes()
}

// TestTraceGolden replays the tiny run against checked-in golden
// outputs: the event trace and the time series are byte-for-byte
// reproducible functions of the configuration and seed. Regenerate
// with: go test ./internal/core -run TestTraceGolden -update
func TestTraceGolden(t *testing.T) {
	events, ts := runTinyTraced(t)
	for _, g := range []struct {
		file string
		got  []byte
	}{
		{filepath.Join("testdata", "tiny_trace.jsonl"), events},
		{filepath.Join("testdata", "tiny_timeseries.jsonl"), ts},
	} {
		if *updateGolden {
			if err := os.WriteFile(g.file, g.got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(g.file)
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		if !bytes.Equal(g.got, want) {
			t.Errorf("%s differs from golden output (regenerate with -update if the change is intended)", g.file)
		}
	}

	// Determinism: a second identical run reproduces the same bytes.
	events2, ts2 := runTinyTraced(t)
	if !bytes.Equal(events, events2) || !bytes.Equal(ts, ts2) {
		t.Error("two identical runs produced different trace bytes")
	}

	// Every emitted line must be valid JSON with the mandatory fields.
	for i, line := range strings.Split(strings.TrimSuffix(string(events), "\n"), "\n") {
		var e struct {
			Ph    string   `json:"ph"`
			TS    *float64 `json:"ts"`
			Track string   `json:"track"`
			Name  string   `json:"name"`
		}
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("trace line %d invalid JSON: %v", i+1, err)
		}
		if e.Ph == "" || e.TS == nil || e.Track == "" || e.Name == "" {
			t.Fatalf("trace line %d missing mandatory fields: %s", i+1, line)
		}
	}
}

// TestPerfettoDocument checks that a Perfetto-format run emits one
// well-formed trace_event JSON document.
func TestPerfettoDocument(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyConfig()
	cfg.Tracing = &TraceConfig{Events: &buf, Format: trace.Perfetto}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string   `json:"ph"`
			PID  *int     `json:"pid"`
			TID  *int64   `json:"tid"`
			TS   *float64 `json:"ts"`
			Name string   `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("Perfetto output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty traceEvents")
	}
	for i, e := range doc.TraceEvents {
		if e.Ph == "" || e.PID == nil || e.TID == nil || e.TS == nil || e.Name == "" {
			t.Fatalf("event %d missing trace_event fields: %+v", i, e)
		}
	}
}

// TestFaultTraceAndTimeSeries checks that a crash run records the
// failover lifecycle in the event trace and that the time series spans
// the whole measured window (so the failover dip is visible).
func TestFaultTraceAndTimeSeries(t *testing.T) {
	var events, ts bytes.Buffer
	opts := PresetOptions{Nodes: 2, Warmup: time.Second, Measure: 16 * time.Second}
	cfg := FailoverConfig(CouplingGEM, true, opts)
	cfg.Tracing = &TraceConfig{Events: &events, TimeSeries: &ts, SampleInterval: 500 * time.Millisecond}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Metrics.Failovers) != 1 {
		t.Fatalf("expected 1 failover, got %d", len(rep.Metrics.Failovers))
	}
	out := events.String()
	for _, want := range []string{
		`"track":"failover","cat":"fault","name":"crash"`,
		`"track":"failover","cat":"recovery","name":"detect"`,
		`"track":"failover","cat":"recovery","name":"lock-recovery"`,
		`"track":"failover","cat":"recovery","name":"replay"`,
		`"track":"failover","cat":"recovery","name":"recovered"`,
		`"track":"failover","cat":"fault","name":"repair"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("event trace missing %s", want)
		}
	}
	var down int
	for _, line := range strings.Split(strings.TrimSuffix(ts.String(), "\n"), "\n") {
		var s struct {
			NodesDown int `json:"nodes_down"`
		}
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("time series line invalid: %v", err)
		}
		if s.NodesDown > 0 {
			down++
		}
	}
	if down == 0 {
		t.Error("time series never observed the crashed node")
	}
}
