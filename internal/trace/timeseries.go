package trace

import (
	"bufio"
	"io"
	"strconv"
	"time"
)

// Sample is one window of the time-series stream: cumulative-counter
// deltas and gauges sampled at a fixed interval of simulated time. Rate
// and percentile fields are NaN when the window is empty (emitted as
// null in the JSONL stream).
type Sample struct {
	T          time.Duration // window end, simulated time
	Commits    int64         // commits in the window
	Aborts     int64         // aborts in the window
	Throughput float64       // commits per second over the window
	RTMean     float64       // mean response time in seconds (NaN if none)
	RTP95      float64       // p95 response time in seconds (NaN if none)
	CPUUtil    float64       // mean CPU utilization over the window [0,1]
	GEMUtil    float64       // GEM server utilization over the window [0,1]
	DiskUtil   float64       // mean disk group utilization over the window [0,1]
	LockWaitQ  int           // lock requests waiting at the sample instant
	Active     int           // transactions in the system at the sample instant
	BufferHit  float64       // buffer hit ratio in the window (NaN if no accesses)
	Dropped    int64         // messages dropped in the window
	NodesDown  int           // crashed nodes at the sample instant
}

// TimeSeriesWriter streams samples as deterministic JSONL, one object
// per window. A nil writer discards samples.
type TimeSeriesWriter struct {
	w   *bufio.Writer
	buf []byte
	n   int64
	err error
}

// NewTimeSeriesWriter returns a writer streaming samples to w.
func NewTimeSeriesWriter(w io.Writer) *TimeSeriesWriter {
	return &TimeSeriesWriter{w: bufio.NewWriterSize(w, 1<<14), buf: make([]byte, 0, 256)}
}

// Enabled reports whether samples will actually be recorded.
func (t *TimeSeriesWriter) Enabled() bool { return t != nil && t.err == nil }

// Samples returns the number of samples written.
func (t *TimeSeriesWriter) Samples() int64 {
	if t == nil {
		return 0
	}
	return t.n
}

// Write emits one sample.
func (t *TimeSeriesWriter) Write(s *Sample) {
	if !t.Enabled() {
		return
	}
	t.n++
	b := t.buf[:0]
	b = append(b, `{"t":`...)
	b = appendMicros(b, s.T)
	b = appendIntField(b, "commits", s.Commits)
	b = appendIntField(b, "aborts", s.Aborts)
	b = appendNumField(b, "tput", s.Throughput)
	b = appendNumField(b, "rt_mean", s.RTMean)
	b = appendNumField(b, "rt_p95", s.RTP95)
	b = appendNumField(b, "cpu_util", s.CPUUtil)
	b = appendNumField(b, "gem_util", s.GEMUtil)
	b = appendNumField(b, "disk_util", s.DiskUtil)
	b = appendIntField(b, "lock_wait_q", int64(s.LockWaitQ))
	b = appendIntField(b, "active", int64(s.Active))
	b = appendNumField(b, "buf_hit", s.BufferHit)
	b = appendIntField(b, "dropped", s.Dropped)
	b = appendIntField(b, "nodes_down", int64(s.NodesDown))
	b = append(b, "}\n"...)
	t.buf = b
	_, err := t.w.Write(b)
	if t.err == nil {
		t.err = err
	}
}

// Close flushes buffered samples. It does not close the underlying
// writer.
func (t *TimeSeriesWriter) Close() error {
	if t == nil {
		return nil
	}
	if t.err == nil {
		t.err = t.w.Flush()
	}
	return t.err
}

// appendKey appends `,"name":`.
func appendKey(b []byte, name string) []byte {
	b = append(b, ',', '"')
	b = append(b, name...)
	return append(b, '"', ':')
}

func appendIntField(b []byte, name string, v int64) []byte {
	return strconv.AppendInt(appendKey(b, name), v, 10)
}

// appendNumField appends a float field, NaN as null.
func appendNumField(b []byte, name string, v float64) []byte {
	return appendFloat(appendKey(b, name), v)
}
