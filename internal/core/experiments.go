package core

import (
	"fmt"
	"time"

	"gemsim/internal/model"
	"gemsim/internal/report"
	"gemsim/internal/workload"
)

// Series is one curve of an experiment: a label and a configuration
// builder parameterized by the node count.
type Series struct {
	Label string
	Make  func(nodes int) Config
}

// Experiment regenerates one figure (or table) of the paper's
// evaluation section.
type Experiment struct {
	// ID is the paper's figure number, e.g. "4.1" or "4.3a".
	ID string
	// Title describes the experiment.
	Title string
	// Metric names the reported value.
	Metric string
	// Nodes is the x-axis (number of processing nodes).
	Nodes []int
	// Series are the curves.
	Series []Series
	// Value extracts the metric from a finished run.
	Value func(*Report) float64
	// Windows, if set, returns the default warm-up and measurement
	// periods for a given node count (the trace experiment measures
	// one full trace replay; the debit-credit figures use fixed
	// windows). ExperimentOptions overrides still take precedence.
	Windows func(nodes int) (warmup, measure time.Duration)
}

// ExperimentOptions scales the experiment suite: full runs for the
// EXPERIMENTS.md record, short runs for benchmarks and tests. The
// experiments themselves are executed by the parallel engine in
// internal/sweep, which consumes these options.
type ExperimentOptions struct {
	// Warmup and Measure override the per-run simulation windows.
	Warmup  time.Duration
	Measure time.Duration
	// Nodes overrides the node counts of every experiment.
	Nodes []int
	// Seed is the base seed; every run derives its own seed from it
	// and the run key (stable under reordering and parallelism).
	Seed int64
	// Replications runs each point with this many independently seeded
	// replicas and reports the replica mean (default 1); with two or
	// more replicas the tables also carry a 95% confidence half-width.
	Replications int
	// Progress, if non-nil, is called after every completed run. The
	// sweep engine serializes calls but not their order: under
	// parallel execution runs complete in arbitrary sequence.
	Progress func(expID, series string, nodes int, rep *Report)
}

// DefaultExperimentOptions returns full-length settings: windows are
// left zero so every experiment uses its own defaults.
func DefaultExperimentOptions() ExperimentOptions {
	return ExperimentOptions{Seed: 1}
}

// rtMillis reports the mean response time in milliseconds.
func rtMillis(r *Report) float64 {
	return float64(r.Metrics.MeanResponseTime) / float64(time.Millisecond)
}

// normRTMillis reports the normalized response time in milliseconds.
func normRTMillis(r *Report) float64 {
	return float64(r.Metrics.NormalizedResponseTime) / float64(time.Millisecond)
}

// tputAt80 reports the achievable per-node throughput at 80% CPU
// utilization.
func tputAt80(r *Report) float64 { return r.ThroughputPerNodeAt(0.8) }

// dcConfig builds a debit-credit configuration.
func dcConfig(nodes int, coupling Coupling, force bool, rt Routing, buffer int) Config {
	cfg := DefaultDebitCreditConfig(nodes)
	cfg.Coupling = coupling
	cfg.Force = force
	cfg.Routing = rt
	cfg.BufferPages = buffer
	return cfg
}

// withBTMedium allocates the BRANCH/TELLER partition to the given
// medium.
func withBTMedium(cfg Config, medium model.Medium) Config {
	cfg.FileMedium = map[string]model.Medium{"BRANCH/TELLER": medium}
	return cfg
}

// defaultNodes is the node axis used for the debit-credit figures.
var defaultNodes = []int{1, 2, 4, 6, 8, 10}

// traceNodes is the node axis of the trace experiment (section 4.6 of
// the paper varies 1-8 nodes).
var traceNodes = []int{1, 2, 4, 6, 8}

// PaperTrace generates the synthetic stand-in for the paper's database
// trace (see DESIGN.md for the calibration).
func PaperTrace(seed int64) (*workload.Trace, error) {
	return workload.GenerateTrace(workload.DefaultTraceGenParams(seed))
}

// Experiments returns the full set of paper experiments. The trace for
// figure 4.7 is generated once with the given seed.
func Experiments(traceSeed int64) ([]Experiment, error) {
	trace, err := PaperTrace(traceSeed)
	if err != nil {
		return nil, err
	}

	routings := []struct {
		name string
		r    Routing
	}{{"random", RoutingRandom}, {"affinity", RoutingAffinity}}
	updates := []struct {
		name  string
		force bool
	}{{"FORCE", true}, {"NOFORCE", false}}

	var exps []Experiment

	// Fig. 4.1: workload allocation and update strategy under GEM
	// locking; buffer 200, all files on disk.
	var s41 []Series
	for _, u := range updates {
		for _, ro := range routings {
			u, ro := u, ro
			s41 = append(s41, Series{
				Label: ro.name + "/" + u.name,
				Make: func(n int) Config {
					return dcConfig(n, CouplingGEM, u.force, ro.r, 200)
				},
			})
		}
	}
	exps = append(exps, Experiment{
		ID:     "4.1",
		Title:  "Influence of workload allocation and update strategy for GEM locking (100 TPS per node)",
		Metric: "mean response time [ms]",
		Nodes:  defaultNodes, Series: s41, Value: rtMillis,
	})

	// Fig. 4.2: buffer size 200 vs 1000 for random routing.
	var s42 []Series
	for _, u := range updates {
		for _, buf := range []int{200, 1000} {
			u, buf := u, buf
			s42 = append(s42, Series{
				Label: fmt.Sprintf("%s/buf%d", u.name, buf),
				Make: func(n int) Config {
					return dcConfig(n, CouplingGEM, u.force, RoutingRandom, buf)
				},
			})
		}
	}
	exps = append(exps, Experiment{
		ID:     "4.2",
		Title:  "Influence of buffer size for random routing (GEM locking)",
		Metric: "mean response time [ms]",
		Nodes:  defaultNodes, Series: s42, Value: rtMillis,
	})

	// Fig. 4.3: BRANCH/TELLER allocated to GEM vs disk (buffer 1000);
	// panel a: NOFORCE, panel b: FORCE.
	for _, u := range updates {
		u := u
		panel := "4.3a"
		if u.force {
			panel = "4.3b"
		}
		var sers []Series
		for _, ro := range routings {
			for _, alloc := range []struct {
				name   string
				medium model.Medium
			}{{"disk", model.MediumDisk}, {"GEM", model.MediumGEM}} {
				ro, alloc := ro, alloc
				sers = append(sers, Series{
					Label: ro.name + "/BT=" + alloc.name,
					Make: func(n int) Config {
						return withBTMedium(dcConfig(n, CouplingGEM, u.force, ro.r, 1000), alloc.medium)
					},
				})
			}
		}
		exps = append(exps, Experiment{
			ID:     panel,
			Title:  "Influence of storage allocation for BRANCH/TELLER (buffer 1000, " + u.name + ")",
			Metric: "mean response time [ms]",
			Nodes:  defaultNodes, Series: sers, Value: rtMillis,
		})
	}

	// Fig. 4.4: disk caches for the BRANCH/TELLER partition (FORCE,
	// buffer 1000).
	var s44 []Series
	for _, ro := range routings {
		for _, alloc := range []struct {
			name   string
			medium model.Medium
		}{
			{"disk", model.MediumDisk},
			{"vcache", model.MediumDiskCacheVolatile},
			{"nvcache", model.MediumDiskCacheNV},
			{"GEM", model.MediumGEM},
		} {
			ro, alloc := ro, alloc
			s44 = append(s44, Series{
				Label: ro.name + "/BT=" + alloc.name,
				Make: func(n int) Config {
					return withBTMedium(dcConfig(n, CouplingGEM, true, ro.r, 1000), alloc.medium)
				},
			})
		}
	}
	exps = append(exps, Experiment{
		ID:     "4.4",
		Title:  "Use of disk caches for BRANCH/TELLER partition (FORCE, buffer 1000)",
		Metric: "mean response time [ms]",
		Nodes:  defaultNodes, Series: s44, Value: rtMillis,
	})

	// Fig. 4.5: PCL vs GEM locking, four panels (update strategy x
	// buffer size), series = coupling x routing.
	for _, u := range updates {
		for _, buf := range []int{200, 1000} {
			u, buf := u, buf
			var sers []Series
			for _, cp := range []struct {
				name string
				c    Coupling
			}{{"GEM", CouplingGEM}, {"PCL", CouplingPCL}} {
				for _, ro := range routings {
					cp, ro := cp, ro
					sers = append(sers, Series{
						Label: cp.name + "/" + ro.name,
						Make: func(n int) Config {
							return dcConfig(n, cp.c, u.force, ro.r, buf)
						},
					})
				}
			}
			exps = append(exps, Experiment{
				ID:     fmt.Sprintf("4.5-%s-buf%d", u.name, buf),
				Title:  fmt.Sprintf("Primary Copy Locking vs GEM locking (%s, buffer %d)", u.name, buf),
				Metric: "mean response time [ms]",
				Nodes:  defaultNodes, Series: sers, Value: rtMillis,
			})
		}
	}

	// Fig. 4.6: throughput per node at 80% CPU utilization (buffer
	// 1000).
	var s46 []Series
	for _, cp := range []struct {
		name string
		c    Coupling
	}{{"GEM", CouplingGEM}, {"PCL", CouplingPCL}} {
		for _, ro := range routings {
			for _, u := range updates {
				cp, ro, u := cp, ro, u
				s46 = append(s46, Series{
					Label: cp.name + "/" + ro.name + "/" + u.name,
					Make: func(n int) Config {
						return dcConfig(n, cp.c, u.force, ro.r, 1000)
					},
				})
			}
		}
	}
	exps = append(exps, Experiment{
		ID:     "4.6",
		Title:  "Throughput per node for PCL and GEM locking at 80% CPU utilization (buffer 1000)",
		Metric: "TPS per node at 80% CPU",
		Nodes:  defaultNodes, Series: s46, Value: tputAt80,
	})

	// Fig. 4.7: real-life (trace) workload, NOFORCE, 50 TPS and 1000
	// pages per node.
	var s47 []Series
	for _, cp := range []struct {
		name string
		c    Coupling
	}{{"GEM", CouplingGEM}, {"PCL", CouplingPCL}} {
		for _, ro := range routings {
			cp, ro := cp, ro
			s47 = append(s47, Series{
				Label: cp.name + "/" + ro.name,
				Make: func(n int) Config {
					cfg := DefaultTraceConfig(n, trace)
					cfg.Coupling = cp.c
					cfg.Routing = ro.r
					return cfg
				},
			})
		}
	}
	// Extension experiment (not a paper figure): the [Yu87] lock
	// engine baseline from the related work section against GEM
	// locking and PCL, under FORCE where all three are defined.
	var sLE []Series
	for _, cp := range []struct {
		name string
		c    Coupling
	}{{"GEM", CouplingGEM}, {"LockEngine", CouplingLockEngine}, {"PCL", CouplingPCL}} {
		for _, ro := range routings {
			cp, ro := cp, ro
			sLE = append(sLE, Series{
				Label: cp.name + "/" + ro.name,
				Make: func(n int) Config {
					return dcConfig(n, cp.c, true, ro.r, 1000)
				},
			})
		}
	}
	// Extension experiment: storage-based communication — primary
	// copy locking with all messages exchanged across GEM (section 2:
	// "A general application of GEM is to use it for inter-node
	// communication") against message-based PCL and GEM locking.
	sGT := []Series{
		{Label: "GEM-locking", Make: func(n int) Config {
			return dcConfig(n, CouplingGEM, false, RoutingRandom, 200)
		}},
		{Label: "PCL/network", Make: func(n int) Config {
			return dcConfig(n, CouplingPCL, false, RoutingRandom, 200)
		}},
		{Label: "PCL/GEM-messages", Make: func(n int) Config {
			cfg := dcConfig(n, CouplingPCL, false, RoutingRandom, 200)
			cfg.GEMMessaging = true
			return cfg
		}},
	}
	exps = append(exps, Experiment{
		ID:     "gemtransport",
		Title:  "Extension: storage-based communication — PCL over GEM message exchange (NOFORCE, random routing, buffer 200)",
		Metric: "mean response time [ms]",
		Nodes:  defaultNodes, Series: sGT, Value: rtMillis,
	})

	exps = append(exps, Experiment{
		ID:     "lockengine",
		Title:  "Extension: centralized lock engine [Yu87] vs GEM locking vs PCL (FORCE, buffer 1000)",
		Metric: "mean response time [ms]",
		Nodes:  defaultNodes, Series: sLE, Value: rtMillis,
	})

	exps = append(exps, Experiment{
		ID:     "4.7",
		Title:  "PCL vs GEM locking for real-life workload (50 TPS and 1000 pages per node)",
		Metric: "normalized response time [ms]",
		Nodes:  traceNodes, Series: s47, Value: normRTMillis,
		// Long fixed windows, identical for every node count: the
		// trace contains multi-minute ad-hoc queries, and the loosely
		// coupled configurations run beyond CPU saturation at higher
		// node counts (as the paper reports), so equal windows are
		// needed for comparable response times.
		Windows: func(int) (time.Duration, time.Duration) {
			return 30 * time.Second, 120 * time.Second
		},
	})

	return exps, nil
}

// ExperimentByID returns the experiment with the given id.
func ExperimentByID(id string, traceSeed int64) (*Experiment, error) {
	exps, err := Experiments(traceSeed)
	if err != nil {
		return nil, err
	}
	for i := range exps {
		if exps[i].ID == id {
			return &exps[i], nil
		}
	}
	return nil, fmt.Errorf("core: unknown experiment %q", id)
}

// PointNodes returns the node axis of the experiment after applying the
// option overrides.
func (e *Experiment) PointNodes(opts ExperimentOptions) []int {
	if len(opts.Nodes) > 0 {
		return opts.Nodes
	}
	return e.Nodes
}

// PointConfig builds the configuration of one experiment point: the
// series' base configuration at the given node count, with the
// experiment's default windows and the option overrides applied. The
// seed is the base seed (opts.Seed, default 1); the sweep engine
// derives the final per-run seed from it and the run key.
func (e *Experiment) PointConfig(series, nodes int, opts ExperimentOptions) Config {
	cfg := e.Series[series].Make(nodes)
	if e.Windows != nil {
		cfg.Warmup, cfg.Measure = e.Windows(nodes)
	} else {
		cfg.Warmup, cfg.Measure = 4*time.Second, 16*time.Second
	}
	if opts.Warmup > 0 {
		cfg.Warmup = opts.Warmup
	}
	if opts.Measure > 0 {
		cfg.Measure = opts.Measure
	}
	if opts.Seed != 0 {
		cfg.Seed = opts.Seed
	}
	return cfg
}

// Table allocates the experiment's (still empty) result table: rows =
// node counts, columns = series labels.
func (e *Experiment) Table(opts ExperimentOptions) *report.Table {
	nodes := e.PointNodes(opts)
	rows := make([]string, len(nodes))
	for i, n := range nodes {
		rows[i] = fmt.Sprintf("%d", n)
	}
	cols := make([]string, len(e.Series))
	for j, s := range e.Series {
		cols[j] = s.Label
	}
	return report.NewTable(
		fmt.Sprintf("Fig. %s: %s", e.ID, e.Title),
		"nodes", e.Metric, rows, cols,
	)
}
