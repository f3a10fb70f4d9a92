package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

// TestJSONLGolden pins the exact JSONL encoding: field order, integer
// microsecond timestamps, omitted zero/empty fields, NaN counters as
// null.
func TestJSONLGolden(t *testing.T) {
	var buf bytes.Buffer
	tr := New(&buf, JSONL)
	tr.Span("cpu0", 7, CPUExec, time.Millisecond, time.Millisecond+1500*time.Microsecond, "")
	tr.Span("gem", 0, GEMEntries, 2*time.Millisecond+100*time.Nanosecond, 2*time.Millisecond+4100*time.Nanosecond, "n=2")
	tr.Instant("net", 3, NetDrop, 2*time.Millisecond, `sz="big"`)
	tr.Counter("metrics", "tput", 3*time.Millisecond, 123.5)
	tr.Counter("metrics", "rt_mean_ms", 3*time.Millisecond, math.NaN())
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	want := `{"ph":"X","ts":1000,"dur":1500,"track":"cpu0","tid":7,"cat":"cpu","name":"exec"}
{"ph":"X","ts":2000.100,"dur":4,"track":"gem","cat":"gem","name":"entries","arg":"n=2"}
{"ph":"i","ts":2000,"track":"net","tid":3,"cat":"net","name":"drop","arg":"sz=\"big\""}
{"ph":"C","ts":3000,"track":"metrics","name":"tput","value":123.5}
{"ph":"C","ts":3000,"track":"metrics","name":"rt_mean_ms","value":null}
`
	if got := buf.String(); got != want {
		t.Errorf("JSONL output mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if tr.Events() != 5 {
		t.Errorf("Events() = %d, want 5", tr.Events())
	}
}

// TestPerfettoGolden pins the Perfetto document shape: traceEvents
// array, lazily emitted process_name metadata, pid/tid identification.
func TestPerfettoGolden(t *testing.T) {
	var buf bytes.Buffer
	tr := New(&buf, Perfetto)
	tr.Span("cpu0", 7, CPUExec, time.Millisecond, 2500*time.Microsecond, "")
	tr.Instant("cpu0", 0, FaultCrash, 3*time.Millisecond, "node=1")
	tr.Counter("metrics", "tput", 4*time.Millisecond, 200)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	want := `{"traceEvents":[
{"ph":"M","pid":1,"tid":0,"ts":0,"name":"process_name","args":{"name":"cpu0"}},
{"ph":"X","pid":1,"tid":7,"ts":1000,"dur":1500,"cat":"cpu","name":"exec"},
{"ph":"i","pid":1,"tid":0,"ts":3000,"s":"t","cat":"fault","name":"crash","args":{"detail":"node=1"}},
{"ph":"M","pid":2,"tid":0,"ts":0,"name":"process_name","args":{"name":"metrics"}},
{"ph":"C","pid":2,"tid":0,"ts":4000,"name":"tput","args":{"tput":200}}
]}
`
	if got := buf.String(); got != want {
		t.Errorf("Perfetto output mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	// The document must be well-formed JSON.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("Perfetto output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 5 {
		t.Errorf("traceEvents length = %d, want 5", len(doc.TraceEvents))
	}
}

// TestPerfettoEmpty checks that a tracer with no events still closes
// into a valid, empty document.
func TestPerfettoEmpty(t *testing.T) {
	var buf bytes.Buffer
	tr := New(&buf, Perfetto)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty Perfetto document invalid: %v", err)
	}
}

// TestNilTracer checks the zero-cost disabled path: every method of a
// nil tracer is a safe no-op.
func TestNilTracer(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Error("nil tracer reports Enabled")
	}
	tr.Span("x", 1, TxnSpan, 0, time.Second, "")
	tr.Instant("x", 1, TxnAbort, 0, "")
	tr.Counter("x", "n", 0, 1)
	if err := tr.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
	if tr.Events() != 0 || tr.Err() != nil {
		t.Error("nil tracer accumulated state")
	}
}

func TestParseFormat(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Format
		ok   bool
	}{
		{"jsonl", JSONL, true},
		{"perfetto", Perfetto, true},
		{"chrome", Perfetto, true},
		{"json", Perfetto, true},
		{"xml", 0, false},
	} {
		got, ok := ParseFormat(tc.in)
		if got != tc.want || ok != tc.ok {
			t.Errorf("ParseFormat(%q) = %v,%v want %v,%v", tc.in, got, ok, tc.want, tc.ok)
		}
	}
}

// TestTimeSeriesWriter pins the JSONL sample encoding, including NaN
// gauges emitted as null.
func TestTimeSeriesWriter(t *testing.T) {
	var buf bytes.Buffer
	w := NewTimeSeriesWriter(&buf)
	w.Write(&Sample{
		T: 500 * time.Millisecond, Commits: 10, Aborts: 1,
		Throughput: 20, RTMean: 0.05, RTP95: 0.1,
		CPUUtil: 0.5, GEMUtil: 0.01, DiskUtil: 0.2,
		LockWaitQ: 2, Active: 5, BufferHit: 0.75,
	})
	w.Write(&Sample{
		T: time.Second, RTMean: math.NaN(), RTP95: math.NaN(),
		BufferHit: math.NaN(), Dropped: 3, NodesDown: 1,
	})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	for i, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d invalid JSON: %v", i, err)
		}
	}
	if !strings.Contains(lines[1], `"rt_mean":null`) {
		t.Errorf("NaN gauge not emitted as null: %s", lines[1])
	}
	if !strings.Contains(lines[0], `"t":500000`) {
		t.Errorf("window end not in microseconds: %s", lines[0])
	}
	if w.Samples() != 2 {
		t.Errorf("Samples() = %d, want 2", w.Samples())
	}

	// Nil writer is a safe no-op.
	var nw *TimeSeriesWriter
	if nw.Enabled() {
		t.Error("nil writer reports Enabled")
	}
	nw.Write(&Sample{})
	if err := nw.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
}

// TestSchemaRows checks that every row is a span or an instant with a
// unique category/name, and that emitting a row with the other phase
// panics.
func TestSchemaRows(t *testing.T) {
	for k, e := range Schema {
		if (e.Ph != 'X' && e.Ph != 'i') || e.Cat == "" || e.Name == "" {
			t.Errorf("row %d is incomplete: %+v", k, e)
		}
		for _, o := range Schema[:k] {
			if o.Cat == e.Cat && o.Name == e.Name {
				t.Errorf("%s/%s is declared twice", e.Cat, e.Name)
			}
		}
	}
	if err := Check("i", "txn", "abort", "late-write"); err != nil {
		t.Errorf("a cc.Reason abort: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Span of an instant row did not panic")
		}
	}()
	New(&bytes.Buffer{}, JSONL).Span("t", 1, TxnAbort, 0, 1, "")
}
