package sweep

import (
	"fmt"
	"sort"
	"time"

	"gemsim/internal/attrib"
	"gemsim/internal/core"
)

// metrics declares the standard metric set: each metric's name
// (usable as a Spec's "metric" and stored with every result), its table
// axis label and its extractor.
var metrics = []struct {
	name, label string
	extract     func(*core.Report) float64
}{
	{"rt_ms", "mean response time [ms]", func(r *core.Report) float64 { return ms(r.Metrics.MeanResponseTime) }},
	{"norm_rt_ms", "normalized response time [ms]", func(r *core.Report) float64 { return ms(r.Metrics.NormalizedResponseTime) }},
	{"p95_rt_ms", "p95 response time [ms]", func(r *core.Report) float64 { return ms(r.Metrics.P95ResponseTime) }},
	{"tput", "throughput [TPS]", func(r *core.Report) float64 { return r.Metrics.Throughput }},
	{"tput80", "TPS per node at 80% CPU", func(r *core.Report) float64 { return r.ThroughputPerNodeAt(0.8) }},
	{"cpu_util", "mean CPU utilization", func(r *core.Report) float64 { return r.Metrics.MeanCPUUtilization }},
	{"gem_util", "GEM utilization", func(r *core.Report) float64 { return r.Metrics.GEMUtilization }},
	{"msgs_txn", "messages per txn", func(r *core.Report) float64 { return r.Metrics.MessagesPerTxn }},
	{"inval_txn", "invalidations per txn", func(r *core.Report) float64 { return r.Metrics.InvalidationsPerTxn }},
	{"local_locks", "local lock share", func(r *core.Report) float64 { return r.Metrics.LocalLockShare }},
	{"commits", "committed transactions", func(r *core.Report) float64 { return float64(r.Metrics.Commits) }},
	{"aborts", "aborted transactions", func(r *core.Report) float64 { return float64(r.Metrics.Aborts) }},
	{"deadlocks", "deadlocks", func(r *core.Report) float64 { return float64(r.Metrics.Deadlocks) }},
	{"admitted", "admitted execution attempts", func(r *core.Report) float64 { return float64(r.Metrics.Admitted) }},
	{"restarts", "transaction restarts", func(r *core.Report) float64 { return float64(r.Metrics.Restarts) }},
	{"cc_aborts", "engine-initiated aborts", func(r *core.Report) float64 { return float64(r.Metrics.CCAborts) }},
	{"bn_dom", "dominant bottleneck (attrib.Res index)", bnDominantIdx},
	{"bn_share", "dominant bottleneck RT share", func(r *core.Report) float64 { return r.Metrics.DominantShare }},
	{"bn_cpu", "RT share attributed to CPU", bnShare(attrib.ResCPU)},
	{"bn_lock", "RT share attributed to locking", bnShare(attrib.ResLock)},
	{"bn_gem", "RT share attributed to GEM", bnShare(attrib.ResGEM)},
	{"bn_buffer", "RT share attributed to buffer waits", bnShare(attrib.ResBuf)},
	{"bn_disk", "RT share attributed to disk", bnShare(attrib.ResDisk)},
	{"bn_net", "RT share attributed to network", bnShare(attrib.ResNet)},
	{"bn_cc", "RT share attributed to CC validation", bnShare(attrib.ResCC)},
	{"bn_other", "unattributed RT share", bnShare(attrib.ResOther)},
}

// bnShare extracts one resource's attributed response-time share; NaN
// would poison aggregation, so runs without attribution report zero.
func bnShare(res attrib.Res) func(*core.Report) float64 {
	return func(r *core.Report) float64 {
		if r.Metrics.Attribution == nil {
			return 0
		}
		return r.Metrics.Attribution.Share(res)
	}
}

// bnDominantIdx encodes the dominant bottleneck as its attrib.Res
// index (the Values store is numeric); -1 when attribution is off.
// DominantName decodes it for table rendering.
func bnDominantIdx(r *core.Report) float64 {
	if r.Metrics.Attribution == nil {
		return -1
	}
	dom, _ := r.Metrics.Attribution.Dominant()
	return float64(dom)
}

// DominantName decodes a stored bn_dom value back to the resource name.
func DominantName(v float64) string {
	i := int(v)
	if i < 0 || i >= int(attrib.NumRes) {
		return "?"
	}
	return attrib.Res(i).String()
}

// Metric resolves a metric name to its extractor.
func Metric(name string) (func(*core.Report) float64, bool) {
	for _, m := range metrics {
		if m.name == name {
			return m.extract, true
		}
	}
	return nil, false
}

// MetricLabel returns the axis label of a metric name.
func MetricLabel(name string) string {
	for _, m := range metrics {
		if m.name == name {
			return m.label
		}
	}
	return name
}

// MetricNames lists the available metric names, sorted.
func MetricNames() []string {
	names := make([]string, len(metrics))
	for i, m := range metrics {
		names[i] = m.name
	}
	sort.Strings(names)
	return names
}

// Extract computes the full standard metric set of a finished run; the
// store persists it so resumed sweeps can aggregate any metric without
// re-running.
func Extract(rep *core.Report) map[string]float64 {
	vals := make(map[string]float64, len(metrics)+1)
	for _, m := range metrics {
		vals[m.name] = m.extract(rep)
	}
	return vals
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// unknownMetricError spells out the alternatives.
func unknownMetricError(name string) error {
	return fmt.Errorf("sweep: unknown metric %q (available: %v)", name, MetricNames())
}
