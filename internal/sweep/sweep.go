// Package sweep is the simulator's one run driver: a declarative
// experiment matrix (a Spec, loadable from JSON), a paper figure
// (core.Experiment) or an extension preset (core.Preset) expands into
// a list of independent simulation runs; a worker pool executes them
// on all cores with per-run panic capture, an optional wall-clock
// timeout and bounded retry; a persistent JSONL result store keyed by
// run fingerprint makes half-finished sweeps resumable; and an
// aggregation layer renders every kind as tables, merging replicated
// runs into mean ± 95% confidence cells. A figure or spec run fills
// one table cell, a preset run one whole row.
//
// Determinism: every figure and spec run's seed is derived from the
// base seed and the run key (rng.DeriveSeed), and every preset run
// keeps the seed its preset set, never one from execution order, so a
// sweep produces byte-identical tables whether it executes on one
// worker or sixteen, freshly or resumed from a partial store.
package sweep

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"time"

	"gemsim/internal/core"
	"gemsim/internal/rng"
	"gemsim/internal/workload"
)

// Run is one executable point of a sweep: a fully resolved
// configuration plus the coordinates of the table cell it feeds.
type Run struct {
	// Key is the run's unique, stable identity within the sweep; the
	// store fingerprint derives from it, and so does the seed of a
	// figure or spec run.
	Key string
	// Group identifies the table the run belongs to (figure or preset
	// id, or sweep name); Title, XLabel and YLabel label that table.
	Group  string
	Title  string
	XLabel string
	YLabel string
	// Row names the run's table row and Cols the columns it fills;
	// RowIdx places the row and ColIdx the first of those columns. A
	// figure or spec run fills one cell, a preset run a whole row.
	Row            string
	Cols           []string
	RowIdx, ColIdx int
	// Replica numbers the independently seeded repetition (0-based).
	Replica int
	// Metric optionally names a one-cell run's metric in the standard
	// metric set (see metrics.go). Aggregation prefers it over the
	// stored "value" entry, so a resumed sweep whose spec switched
	// metrics still reads the right number out of old store lines.
	Metric string
	// Config is the resolved configuration, including the run's seed.
	Config core.Config
	// Cells extracts the run's table cells from a finished run, one per
	// entry of Cols; an error fails the run. When nil the run stores
	// only the standard metric set.
	Cells func(*core.Report) ([]float64, error)
}

// cellKey names the Result.Values entry of a run's j-th cell: "value"
// for the first, "value<j>" for the rest of a preset row.
func cellKey(j int) string {
	if j == 0 {
		return "value"
	}
	return "value" + strconv.Itoa(j)
}

// DeriveSeed returns the per-run seed for a base seed and run key (a
// stable hash; see rng.DeriveSeed).
func DeriveSeed(base int64, key string) int64 { return rng.DeriveSeed(base, key) }

// Fingerprint identifies a run in the result store: a stable hash of
// the run key, the derived seed and a digest of the configuration, so
// a resumed sweep only trusts stored results produced by an identical
// run.
func (r *Run) Fingerprint() string {
	h := fnv.New64a()
	_, _ = h.Write([]byte(r.Key))
	fmt.Fprintf(h, "|seed=%d|", r.Config.Seed)
	_, _ = h.Write([]byte(ConfigDigest(&r.Config)))
	return fmt.Sprintf("%016x", h.Sum64())
}

// cfgDigest is the hashable shadow of core.Config: every field that
// influences simulation results, in a canonically marshalable form
// (map keys sort during JSON encoding). Two Config fields are left
// out on purpose: Tracing only observes a run, and Tune, a function, is
// recorded only as the Tuned flag, so a change to a hook's body does
// not change the digest. Fields added after the first digests are
// omitted when zero, so stored fingerprints of runs that leave them
// unset stay valid.
type cfgDigest struct {
	Nodes       int
	Rate        float64
	Coupling    int
	Force       bool
	Routing     int
	CC          int `json:",omitempty"`
	BufferPages int
	MPL         int

	FileMedium     map[string]int `json:",omitempty"`
	DiskCachePages map[string]int `json:",omitempty"`
	LogInGEM       bool
	GlobalLogMerge bool
	GEMMessaging   bool

	ClosedTerminals int
	ClosedThinkNS   int64

	WarmupNS  int64
	MeasureNS int64
	Seed      int64
	Check     bool

	Workload string
	Faults   string `json:",omitempty"`
	Control  string `json:",omitempty"`
	// Attribution changes the stored attribution metrics (bn_*).
	Attribution *core.AttributionConfig `json:",omitempty"`
	// Tuned records only that a Tune hook is set, not what the hook
	// does: -resume in another process trusts the stored rows of a tuned
	// configuration even after the hook's body changed. CI's preset
	// resume smoke run relies on exactly that for the engines preset.
	// ROADMAP item 7 replaces Config.Tune with a model knob.
	Tuned bool
}

// ConfigDigest canonically encodes the result-relevant parts of a
// configuration: two configurations with equal digests produce the
// same simulated results. Trace workloads are digested from bounded samples
// (length plus the shape of the first transactions), which
// distinguishes differently generated traces without walking millions
// of references per run.
func ConfigDigest(cfg *core.Config) string {
	d := cfgDigest{
		Nodes:          cfg.Nodes,
		Rate:           cfg.ArrivalRatePerNode,
		Coupling:       int(cfg.Coupling),
		Force:          cfg.Force,
		Routing:        int(cfg.Routing),
		CC:             int(cfg.CC),
		BufferPages:    cfg.BufferPages,
		MPL:            cfg.MPL,
		LogInGEM:       cfg.LogInGEM,
		GlobalLogMerge: cfg.GlobalLogMerge,
		GEMMessaging:   cfg.GEMMessaging,
		WarmupNS:       int64(cfg.Warmup),
		MeasureNS:      int64(cfg.Measure),
		Seed:           cfg.Seed,
		Check:          cfg.CheckInvariants,
		Workload:       workloadDigest(&cfg.Workload),
		Tuned:          cfg.Tune != nil,
	}
	if len(cfg.FileMedium) > 0 {
		d.FileMedium = make(map[string]int, len(cfg.FileMedium))
		for name, m := range cfg.FileMedium {
			d.FileMedium[name] = int(m)
		}
	}
	if len(cfg.DiskCachePages) > 0 {
		d.DiskCachePages = cfg.DiskCachePages
	}
	if cl := cfg.ClosedLoop; cl != nil {
		d.ClosedTerminals = cl.TerminalsPerNode
		d.ClosedThinkNS = int64(cl.ThinkTime)
	}
	if cfg.Faults != nil {
		fb, _ := json.Marshal(cfg.Faults)
		d.Faults = string(fb)
	}
	if cfg.Control != nil {
		cb, _ := json.Marshal(cfg.Control)
		d.Control = string(cb)
	}
	if cfg.Attribution != (core.AttributionConfig{}) {
		d.Attribution = &cfg.Attribution
	}
	b, err := json.Marshal(&d)
	if err != nil {
		// cfgDigest contains only marshalable fields.
		panic(fmt.Sprintf("sweep: config digest: %v", err))
	}
	return string(b)
}

// workloadDigest summarizes the workload selection.
func workloadDigest(w *core.WorkloadConfig) string {
	switch {
	case w.Trace != nil:
		return traceDigest(w.Trace)
	case w.DebitCredit != nil:
		b, _ := json.Marshal(w.DebitCredit)
		return "dc:" + string(b)
	default:
		return "dc-default"
	}
}

// traceDigest hashes a bounded sample of the trace: its dimensions and
// the shape (type, reference count, first page) of the first 1000
// transactions.
func traceDigest(t *workload.Trace) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "trace|types=%d|files=%d|txns=%d|", t.Types, len(t.Files), len(t.Txns))
	for i := 0; i < len(t.Txns) && i < 1000; i++ {
		tx := &t.Txns[i]
		first := "-"
		if len(tx.Refs) > 0 {
			first = tx.Refs[0].Page.String()
		}
		fmt.Fprintf(h, "%d,%d,%s;", tx.Type, len(tx.Refs), first)
	}
	return fmt.Sprintf("trace:%016x", h.Sum64())
}

// checkKeys verifies that every run key is unique; duplicate keys would
// make results overwrite each other silently.
func checkKeys(runs []Run) error {
	seen := make(map[string]int, len(runs))
	for i := range runs {
		if j, dup := seen[runs[i].Key]; dup {
			return fmt.Errorf("sweep: duplicate run key %q (runs %d and %d)", runs[i].Key, j, i)
		}
		seen[runs[i].Key] = i
	}
	return nil
}

// sortedFailures extracts the failed results in key order.
func sortedFailures(results map[string]Result) []Failure {
	var fs []Failure
	for _, res := range results {
		if res.Err != "" {
			fs = append(fs, Failure{Key: res.Key, Err: res.Err})
		}
	}
	sort.Slice(fs, func(i, j int) bool { return fs[i].Key < fs[j].Key })
	return fs
}

// fmtDuration renders a wall-clock duration for progress output.
func fmtDuration(d time.Duration) string { return d.Round(time.Millisecond).String() }
