package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"gemsim/internal/attrib"
	"gemsim/internal/fault"
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

// tinyLockEngineConfig is the two-node [Yu87] lock-engine variant of
// tinyConfig: FORCE, so the engine runs, and two nodes, so commits run
// the invalidation broadcast.
func tinyLockEngineConfig() Config {
	cfg := tinyConfig()
	cfg.Nodes = 2
	cfg.Coupling = CouplingLockEngine
	cfg.Force = true
	return cfg
}

// tinyPCLConfig is a three-node primary copy locking run of the
// synthetic trace with random routing, a node crash and a lock-wait
// timeout: remote grants, read-authorization revocations, deadlock
// victims, timed-out waits and the recovery's lock releases all show in
// its trace.
func tinyPCLConfig() Config {
	cfg := DefaultTraceConfig(3, ccMatrixTrace())
	cfg.Coupling = CouplingPCL
	cfg.Routing = RoutingRandom
	cfg.ArrivalRatePerNode = 60
	cfg.Warmup = 500 * time.Millisecond
	cfg.Measure = 4 * time.Second
	cfg.Faults = &FaultConfig{Crashes: []fault.NodeCrash{{Node: 1, At: 2 * time.Second, Repair: time.Second}}}
	cfg.Faults.LockWaitTimeout = 300 * time.Millisecond
	return cfg
}

// tinyLogConfig is a two-node GEM run with the logs on disk: a log0
// stall holds up commit log writes, and node 1 crashes so that its
// recovery scans log1 while a log1 stall is active. Its trace pins the
// log-page I/O no other golden covers.
func tinyLogConfig() Config {
	cfg := tinyConfig()
	cfg.Nodes = 2
	cfg.Faults = &FaultConfig{
		Crashes: []fault.NodeCrash{{Node: 1, At: 500 * time.Millisecond, Repair: time.Second}},
		DiskStalls: []fault.DiskStall{
			{File: "log0", At: 330 * time.Millisecond, Duration: 40 * time.Millisecond},
			{File: "log1", At: 550 * time.Millisecond, Duration: 30 * time.Millisecond},
		},
	}
	return cfg
}

// TestTracingDisabledUnchanged checks the zero-cost property at the
// metrics level: enabling the full observability stack (event trace,
// time series) leaves every measured metric exactly as in an untraced
// run of the same configuration. Tracing adds nothing to the metrics:
// the phase breakdown is collected either way.
func TestTracingDisabledUnchanged(t *testing.T) {
	plain, err := Run(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if plain.Metrics.Phases == nil || plain.Metrics.Phases.N == 0 {
		t.Fatal("untraced run collected no phase breakdown")
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
	if !reflect.DeepEqual(traced.Metrics, plain.Metrics) {
		t.Errorf("tracing changed the measured metrics:\ntraced: %+v\nplain:  %+v", traced.Metrics, plain.Metrics)
	}
}

// TestPhaseSumsMatchMeanRT checks the acceptance criterion for the
// response time decomposition on an untraced run: the per-phase means
// (including the residual) sum to the measured mean response time
// within 1%.
func TestPhaseSumsMatchMeanRT(t *testing.T) {
	rep, err := Run(DefaultDebitCreditConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	b := rep.Metrics.Phases
	if b == nil || b.N == 0 {
		t.Fatal("no phase breakdown collected")
	}
	var sum time.Duration
	for p := attrib.Phase(0); p < attrib.NumPhases; p++ {
		sum += b.PhaseMean(p)
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
	if b.PhaseShare(attrib.PhaseCPU) <= 0 || b.PhaseShare(attrib.PhaseIORead) <= 0 {
		t.Errorf("cpu/io-read shares are zero: cpu=%v io=%v", b.PhaseShare(attrib.PhaseCPU), b.PhaseShare(attrib.PhaseIORead))
	}
	if b.PhaseShare(attrib.PhaseOther) > 0.25 {
		t.Errorf("unattributed residual share %.3f exceeds 25%%", b.PhaseShare(attrib.PhaseOther))
	}
}

// TestFaultRunBreakdownSumsToRT checks both views of the one
// response-time record across crash resubmissions: a transaction
// killed by a node crash is resubmitted with the same record, so the
// per-phase sums and the per-resource sums each still add up to the
// summed response time exactly.
func TestFaultRunBreakdownSumsToRT(t *testing.T) {
	rep, err := Run(smallFailoverConfig(CouplingGEM, true))
	if err != nil {
		t.Fatal(err)
	}
	m := &rep.Metrics
	if m.TxnsRetried == 0 {
		t.Fatal("no crash resubmissions: the case does not exercise runWithRetry")
	}
	b := m.Phases
	if b == nil || b != m.Attribution || b.N != m.Commits {
		t.Fatalf("phases %p and attribution %p must be one breakdown of the %d commits", b, m.Attribution, m.Commits)
	}
	var phases, resources time.Duration
	for p := range b.Phase {
		phases += b.Phase[p]
	}
	for r := range b.Wait {
		resources += b.Wait[r] + b.Svc[r]
	}
	if phases != b.RT || resources != b.RT {
		t.Errorf("phase sums %v and resource sums %v, want both equal to the summed RT %v", phases, resources, b.RT)
	}
	if d := (b.MeanRT() - m.MeanResponseTime).Abs(); d > time.Microsecond {
		t.Errorf("breakdown mean RT %v, measured mean RT %v", b.MeanRT(), m.MeanResponseTime)
	}
}

// runTraced runs cfg with a JSONL event trace and time series attached
// and returns both outputs.
func runTraced(t *testing.T, cfg Config) (events, ts []byte) {
	t.Helper()
	var eb, tb bytes.Buffer
	cfg.Tracing = &TraceConfig{Events: &eb, TimeSeries: &tb, SampleInterval: 200 * time.Millisecond}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	return eb.Bytes(), tb.Bytes()
}

// writeBehindSpans are the spans that only background write-behind
// emits in the write-behind golden: with no transaction to act for,
// they carry no tid. A replaced ACCOUNT page leaves the GEM cache for
// disk, a BRANCH/TELLER page the GEM write buffer, and GEM page reads
// feed the GEM-cache destages.
var writeBehindSpans = []string{
	`"track":"ACCOUNT","cat":"io","name":"write"`,
	`"track":"BRANCH/TELLER","cat":"io","name":"write"`,
	`"track":"gem","cat":"gem","name":"page"`,
}

// logSpans match the log-page I/O spans the disk-log golden must hold,
// with or without a transaction id: the recovery's scan of the crashed
// node's log and a commit log write.
var logSpans = []*regexp.Regexp{
	regexp.MustCompile(`"track":"log1",("tid":\d+,)?"cat":"io","name":"read"`),
	regexp.MustCompile(`"track":"log0",("tid":\d+,)?"cat":"io","name":"write"`),
}

// TestTraceGolden replays the tiny run against checked-in golden
// outputs: the event trace and the time series are byte-for-byte
// reproducible functions of the configuration and seed. The lock-engine
// variant pins the [Yu87] engine's trace; the write-behind variant
// (examples/config/write-behind.json) pins the background writes of
// replaced pages, GEM-cache and GEM write-buffer destages and a disk
// stall; the disk-log variant (tinyLogConfig) pins commit log writes
// and a recovery's log scan, each under a log-disk stall. Regenerate
// with:
// go test ./internal/core -run TestTraceGolden -update
func TestTraceGolden(t *testing.T) {
	events, ts := runTraced(t, tinyConfig())
	leEvents, _ := runTraced(t, tinyLockEngineConfig())
	pclEvents, _ := runTraced(t, tinyPCLConfig())
	wbCfg, err := LoadConfigFile(filepath.Join("..", "..", "examples", "config", "write-behind.json"))
	if err != nil {
		t.Fatal(err)
	}
	wbEvents, _ := runTraced(t, wbCfg)
	for _, span := range writeBehindSpans {
		if !bytes.Contains(wbEvents, []byte(span)) {
			t.Errorf("write-behind trace has no tid-less %s span", span)
		}
	}
	logEvents, _ := runTraced(t, tinyLogConfig())
	for _, span := range logSpans {
		if !span.Match(logEvents) {
			t.Errorf("disk-log trace has no span matching %s", span)
		}
	}
	for _, g := range []struct {
		file string
		got  []byte
	}{
		{filepath.Join("testdata", "tiny_trace.jsonl"), events},
		{filepath.Join("testdata", "tiny_timeseries.jsonl"), ts},
		{filepath.Join("testdata", "tiny_trace_le.jsonl"), leEvents},
		{filepath.Join("testdata", "tiny_trace_pcl.jsonl"), pclEvents},
		{filepath.Join("testdata", "tiny_trace_wb.jsonl"), wbEvents},
		{filepath.Join("testdata", "tiny_trace_log.jsonl"), logEvents},
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
	events2, ts2 := runTraced(t, tinyConfig())
	if !bytes.Equal(events, events2) || !bytes.Equal(ts, ts2) {
		t.Error("two identical runs produced different trace bytes")
	}

	// Every emitted line must be valid JSON with the mandatory fields.
	for _, tr := range [][]byte{events, leEvents, pclEvents, wbEvents, logEvents} {
		for i, line := range strings.Split(strings.TrimSuffix(string(tr), "\n"), "\n") {
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
