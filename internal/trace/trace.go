// Package trace is the simulator's observability layer: spans and
// instants emitted by the device models and the transaction path (each
// a row of Schema) and windowed time-series samples. The per-phase
// response-time decomposition is a view of package attrib's record.
//
// Events carry simulated time only, so a trace is a pure function of
// the configuration and seed: two runs with identical inputs produce
// byte-identical traces. A nil *Tracer is a valid, disabled tracer —
// every method is a no-op — so instrumented code may keep unconditional
// calls on cold paths; hot paths should guard with Enabled() to avoid
// building argument strings that would be thrown away.
package trace

import (
	"bufio"
	"io"
	"math"
	"strconv"
	"time"
)

// Format selects the on-disk encoding of the event stream.
type Format int

const (
	// JSONL writes one self-describing JSON object per line, for
	// grep/jq-style analysis and the golden tests.
	JSONL Format = iota
	// Perfetto writes a Chrome trace_event JSON document loadable by
	// ui.perfetto.dev and chrome://tracing. Tracks become processes,
	// transactions become threads within them.
	Perfetto
)

// ParseFormat maps a user-facing format name to a Format.
func ParseFormat(s string) (Format, bool) {
	switch s {
	case "jsonl":
		return JSONL, true
	case "perfetto", "chrome", "json":
		return Perfetto, true
	}
	return 0, false
}

// Tracer streams simulation events to a writer. The simulation kernel
// runs at most one process at any instant, so Tracer needs no locking.
type Tracer struct {
	w       *bufio.Writer
	format  Format
	events  int64
	wrote   bool // at least one event emitted (Perfetto comma state)
	pids    map[string]int
	nextPID int
	buf     []byte
	err     error
}

// New returns a tracer streaming events to w in the given format.
func New(w io.Writer, format Format) *Tracer {
	return &Tracer{
		w:      bufio.NewWriterSize(w, 1<<16),
		format: format,
		pids:   make(map[string]int),
		buf:    make([]byte, 0, 256),
	}
}

// Enabled reports whether events will actually be recorded. It is safe
// (and false) on a nil tracer; hot paths use it to skip argument
// construction entirely.
func (t *Tracer) Enabled() bool { return t != nil && t.err == nil }

// Events returns the number of events emitted so far.
func (t *Tracer) Events() int64 {
	if t == nil {
		return 0
	}
	return t.events
}

// Err returns the first write error encountered, if any.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	return t.err
}

// Span records a completed interval [start, end) on the given track.
// tid identifies the transaction (0 for non-transaction work), k the
// declared span, and arg an optional detail such as "page=1234".
func (t *Tracer) Span(track string, tid int64, k Kind, start, end time.Duration, arg string) {
	if t.Enabled() {
		t.emitRow('X', k, track, tid, start, end-start, arg)
	}
}

// Instant records a declared point event (crash, message drop, abort).
func (t *Tracer) Instant(track string, tid int64, k Kind, at time.Duration, arg string) {
	if t.Enabled() {
		t.emitRow('i', k, track, tid, at, 0, arg)
	}
}

// emitRow writes schema row k; a span of an instant row (or the
// reverse) is a programming error.
func (t *Tracer) emitRow(ph byte, k Kind, track string, tid int64, ts, dur time.Duration, arg string) {
	e := &Schema[k]
	if e.Ph != ph {
		panic("trace: " + e.Cat + "/" + e.Name + " emitted with phase " + string(ph))
	}
	t.emit(ph, track, tid, e.Cat, e.Name, ts, dur, arg, 0, false)
}

// Counter records a sampled numeric value on a track, rendered by
// Perfetto as a counter graph. NaN values are emitted as null in JSONL
// and skipped in Perfetto output (trace_event has no missing-sample
// representation).
func (t *Tracer) Counter(track, name string, at time.Duration, value float64) {
	if !t.Enabled() {
		return
	}
	if t.format == Perfetto && math.IsNaN(value) {
		return
	}
	t.emit('C', track, 0, "", name, at, 0, "", value, true)
}

// Close terminates the stream (closing the Perfetto JSON document) and
// flushes buffered output. It does not close the underlying writer.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	if t.err == nil && t.format == Perfetto {
		if !t.wrote {
			t.write([]byte("{\"traceEvents\":[\n"))
		}
		t.write([]byte("\n]}\n"))
	}
	if t.err == nil {
		t.err = t.w.Flush()
	}
	return t.err
}

// pid returns the stable Perfetto process id for a track, emitting the
// process_name metadata event on first use. Assignment order follows
// first emission, which is deterministic under the simulation kernel.
func (t *Tracer) pid(track string) int {
	if id, ok := t.pids[track]; ok {
		return id
	}
	t.nextPID++
	id := t.nextPID
	t.pids[track] = id
	b := t.sep()
	b = append(b, `{"ph":"M","pid":`...)
	b = strconv.AppendInt(b, int64(id), 10)
	b = append(b, `,"tid":0,"ts":0,"name":"process_name","args":{"name":"`...)
	b = appendEscaped(b, track)
	b = append(b, `"}}`...)
	t.buf = b
	t.flushLine()
	return id
}

// sep starts a new event record in t.buf, with the Perfetto document
// header and inter-record comma handled lazily.
func (t *Tracer) sep() []byte {
	b := t.buf[:0]
	if t.format == Perfetto {
		if !t.wrote {
			b = append(b, "{\"traceEvents\":[\n"...)
		} else {
			b = append(b, ",\n"...)
		}
	}
	t.wrote = true
	return b
}

func (t *Tracer) flushLine() {
	if t.format == JSONL {
		t.buf = append(t.buf, '\n')
	}
	t.write(t.buf)
}

func (t *Tracer) write(b []byte) {
	if t.err != nil {
		return
	}
	_, t.err = t.w.Write(b)
}

// emit encodes one event. Timestamps and durations are microseconds
// with nanosecond resolution, as required by the trace_event format.
func (t *Tracer) emit(ph byte, track string, tid int64, cat, name string, ts, dur time.Duration, arg string, value float64, hasValue bool) {
	t.events++
	if t.format == Perfetto {
		pid := t.pid(track) // may emit metadata, invalidating t.buf
		b := t.sep()
		b = append(b, `{"ph":"`...)
		b = append(b, ph, '"')
		b = appendIntField(b, "pid", int64(pid))
		b = appendIntField(b, "tid", tid)
		b = appendMicros(appendKey(b, "ts"), ts)
		if ph == 'X' {
			b = appendMicros(appendKey(b, "dur"), dur)
		}
		if ph == 'i' {
			b = append(b, `,"s":"t"`...)
		}
		if cat != "" {
			b = appendField(b, "cat", cat)
		}
		b = appendField(b, "name", name)
		switch {
		case hasValue:
			b = append(b, `,"args":{"`...)
			b = appendEscaped(b, name)
			b = append(b, `":`...)
			b = appendFloat(b, value)
			b = append(b, '}')
		case arg != "":
			b = append(b, `,"args":{"detail":"`...)
			b = appendEscaped(b, arg)
			b = append(b, `"}`...)
		}
		b = append(b, '}')
		t.buf = b
		t.flushLine()
		return
	}
	b := t.sep()
	b = append(b, `{"ph":"`...)
	b = append(b, ph, '"')
	b = appendMicros(appendKey(b, "ts"), ts)
	if ph == 'X' {
		b = appendMicros(appendKey(b, "dur"), dur)
	}
	b = appendField(b, "track", track)
	if tid != 0 {
		b = appendIntField(b, "tid", tid)
	}
	if cat != "" {
		b = appendField(b, "cat", cat)
	}
	b = appendField(b, "name", name)
	if hasValue {
		b = appendNumField(b, "value", value)
	}
	if arg != "" {
		b = appendField(b, "arg", arg)
	}
	b = append(b, '}')
	t.buf = b
	t.flushLine()
}

// appendMicros formats a duration as decimal microseconds with three
// fractional digits (nanosecond precision), avoiding float formatting
// so output is exact and deterministic.
func appendMicros(b []byte, d time.Duration) []byte {
	ns := int64(d)
	if ns < 0 {
		b = append(b, '-')
		ns = -ns
	}
	b = strconv.AppendInt(b, ns/1000, 10)
	frac := ns % 1000
	if frac != 0 {
		b = append(b, '.')
		b = append(b, byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
	}
	return b
}

// appendFloat formats a counter value; NaN becomes null (JSONL only —
// Perfetto counters skip NaN before reaching here).
func appendFloat(b []byte, v float64) []byte {
	if math.IsNaN(v) {
		return append(b, "null"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// appendField appends `,"key":"s"` with s escaped.
func appendField(b []byte, key, s string) []byte {
	return append(appendEscaped(append(appendKey(b, key), '"'), s), '"')
}

// appendEscaped appends s as JSON string content.
func appendEscaped(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c < 0x20:
			const hex = "0123456789abcdef"
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		default:
			b = append(b, c)
		}
	}
	return b
}
