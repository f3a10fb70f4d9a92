package main

import (
	"errors"
	"fmt"
	"time"

	"gemsim/internal/cc"
	"gemsim/internal/core"
	"gemsim/internal/rng"
	"gemsim/internal/routing"
	"gemsim/internal/sweep"
	"gemsim/internal/workload"
)

// workloadSpec is one named set of inputs to the simulator.
type workloadSpec struct {
	name  string
	load  string // simulated load shape, recorded with every output
	setup func(seed int64) (*plan, error)
}

// plan is a workload's prepared inputs: what one pass simulates and the
// paper-shape assertion its results must meet.
type plan struct {
	desc  string          // simulated points and windows
	pass  func() []result // runs every simulated configuration once
	shape func(reps map[string]*core.Report) error
}

// result is one simulated run of a pass.
type result struct {
	key  string
	rep  *core.Report // nil when the run failed
	err  error
	wall time.Duration // host time from the end of the previous run
	ref  time.Duration // mean host time of the reference kernel runs before and after it
}

// keyedConfig is a configuration run through core.Run directly.
type keyedConfig struct {
	key string
	cfg core.Config
}

// The hyperscale complex: 32,000 pooled terminals, each a pending
// calendar event while it thinks, at 100 TPS per node.
const (
	hyperNodes     = 32
	hyperTerminals = 1000
	hyperThink     = hyperTerminals * time.Second / 100
)

// workloads are the benchmark's inputs. paper-dc and paper-trace are
// the paper's two workloads as users regenerate its figures; hyperscale
// fills the calendar with idle terminals while conflicts stay rare;
// contention drives the lock and CC layers with conflicting writers.
var workloads = []workloadSpec{
	{"paper-dc", "open loop, Poisson arrivals at 100 TPS per node; debit-credit, 3-4 page references per txn", setupPaperDC},
	{"paper-trace", "open loop, Poisson arrivals at 50 TPS per node; synthetic trace replay, mean 57 references per txn", setupPaperTrace},
	{"hyperscale", fmt.Sprintf("closed loop, %d nodes x %d pooled terminals, think %v (100 TPS per node), MPL 64",
		hyperNodes, hyperTerminals, hyperThink), setupHyperscale},
	{"contention", fmt.Sprintf("closed loop, 2 nodes x 40 goroutine terminals, think 150ms; engines preset, high hot spot, %d seeds per engine",
		contentionReplicas), setupContention},
}

func lookup(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// setupPaperDC expands Fig. 4.1 (GEM; FORCE/NOFORCE x random/affinity)
// and the NOFORCE buffer-200 panel of Fig. 4.5 (GEM/PCL x
// random/affinity) on a small node axis. The figures are rebuilt here
// rather than taken from core.Experiments, which would also synthesize
// the Fig. 4.7 trace.
func setupPaperDC(seed int64) (*plan, error) {
	opts := core.ExperimentOptions{
		Warmup:  time.Second,
		Measure: 4 * time.Second,
		Nodes:   []int{2, 4},
		Seed:    rng.DeriveSeed(seed, "paper-dc"),
	}
	exps := []core.Experiment{
		dcFigure("4.1",
			dcSeries("random/FORCE", core.CouplingGEM, true, core.RoutingRandom),
			dcSeries("affinity/FORCE", core.CouplingGEM, true, core.RoutingAffinity),
			dcSeries("random/NOFORCE", core.CouplingGEM, false, core.RoutingRandom),
			dcSeries("affinity/NOFORCE", core.CouplingGEM, false, core.RoutingAffinity)),
		dcFigure("4.5-NOFORCE-buf200",
			dcSeries("GEM/random", core.CouplingGEM, false, core.RoutingRandom),
			dcSeries("GEM/affinity", core.CouplingGEM, false, core.RoutingAffinity),
			dcSeries("PCL/random", core.CouplingPCL, false, core.RoutingRandom),
			dcSeries("PCL/affinity", core.CouplingPCL, false, core.RoutingAffinity)),
	}
	runs := 0
	for i := range exps {
		runs += len(sweep.ExperimentRuns(&exps[i], opts))
	}
	n := opts.Nodes[len(opts.Nodes)-1]
	return &plan{
		desc: fmt.Sprintf("Fig. 4.1 and 4.5-NOFORCE-buf200 via sweep.RunFigure (Jobs 1): nodes %v, buffer 200, warm-up %v, measure %v; %d runs per pass",
			opts.Nodes, opts.Warmup, opts.Measure, runs),
		pass: func() []result { return runFigures(exps, opts) },
		// Fig. 4.5 (TestAnchorPCLWorseForRandomRouting): under random
		// routing, PCL is slower than GEM locking. Fig. 4.1's affinity
		// advantage under FORCE is left out: at 4 nodes it is within
		// noise of zero for some seeds (its test compares 10 nodes).
		shape: func(reps map[string]*core.Report) error {
			return slowerRT(reps, figKey("4.5-NOFORCE-buf200", "PCL/random", n), figKey("4.5-NOFORCE-buf200", "GEM/random", n))
		},
	}, nil
}

func dcFigure(id string, series ...core.Series) core.Experiment {
	return core.Experiment{
		ID:     id,
		Title:  "debit-credit, Fig. " + id,
		Metric: "mean response time [ms]",
		Series: series,
		Value:  func(r *core.Report) float64 { return ms(r.Metrics.MeanResponseTime) },
	}
}

func dcSeries(label string, coupling core.Coupling, force bool, rt core.Routing) core.Series {
	return core.Series{Label: label, Make: func(nodes int) core.Config {
		cfg := core.DefaultDebitCreditConfig(nodes)
		cfg.Coupling, cfg.Force, cfg.Routing = coupling, force, rt
		return cfg
	}}
}

// setupPaperTrace synthesizes the Fig. 4.7 trace from the seed, derives
// its affinity routing table for every node count (users pay for it
// with the trace; core.Run derives it again per run), and expands the
// affinity-routed GEM and PCL series of Fig. 4.7. How much host time a
// transaction takes depends on the trace's mix of transaction sizes, so
// ns_per_txn spreads 5-9% of its median between the first and third
// quartiles of ten seeds, while repeated runs of one seed stay within
// about 1% of each other; neither twice the simulated window nor a
// second trace narrowed that spread.
func setupPaperTrace(seed int64) (*plan, error) {
	tr, err := workload.GenerateTrace(workload.DefaultTraceGenParams(rng.DeriveSeed(seed, "paper-trace/trace")))
	if err != nil {
		return nil, err
	}
	opts := core.ExperimentOptions{
		Warmup:  2 * time.Second,
		Measure: 8 * time.Second,
		Nodes:   []int{2, 4},
		Seed:    rng.DeriveSeed(seed, "paper-trace"),
	}
	tables := make(map[int]*routing.TraceAffinity, len(opts.Nodes))
	for _, n := range opts.Nodes {
		tables[n] = routing.ComputeTraceAffinity(tr, n)
	}
	exp := core.Experiment{
		ID:     "4.7",
		Title:  "synthetic trace, Fig. 4.7",
		Metric: "normalized response time [ms]",
		Series: []core.Series{traceSeries("GEM/affinity", core.CouplingGEM, tr), traceSeries("PCL/affinity", core.CouplingPCL, tr)},
		Value:  func(r *core.Report) float64 { return ms(r.Metrics.NormalizedResponseTime) },
	}
	runs := len(sweep.ExperimentRuns(&exp, opts))
	return &plan{
		desc: fmt.Sprintf("Fig. 4.7 GEM and PCL with affinity routing via sweep.RunFigure (Jobs 1): trace of %d txns, nodes %v, buffer 1000, warm-up %v, measure %v; %d runs per pass",
			len(tr.Txns), opts.Nodes, opts.Warmup, opts.Measure, runs),
		pass: func() []result { return runFigures([]core.Experiment{exp}, opts) },
		shape: func(reps map[string]*core.Report) error {
			// TestTraceAffinityBeatsRandomOnLocality: the affinity table
			// keeps more of the trace's lock requests at the requesting
			// node than round-robin routing does, and at least 40%.
			for _, n := range opts.Nodes {
				aff := lockLocality(tr, tables[n], tables[n])
				rr := lockLocality(tr, tables[n], routing.NewRoundRobin(n))
				if aff <= rr || aff < 0.4 {
					return fmt.Errorf("n=%d: affinity lock locality %.3f, round-robin %.3f; want above round-robin and 0.4", n, aff, rr)
				}
			}
			return nil
		},
	}, nil
}

func traceSeries(label string, coupling core.Coupling, tr *workload.Trace) core.Series {
	return core.Series{Label: label, Make: func(nodes int) core.Config {
		cfg := core.DefaultTraceConfig(nodes, tr)
		cfg.Coupling = coupling
		return cfg
	}}
}

// lockLocality is the share of the trace's page references whose lock
// authority is the node the router sends their transaction to.
func lockLocality(tr *workload.Trace, gla routing.GLAMap, r routing.Router) float64 {
	var local, total int
	for i := range tr.Txns {
		tx := &tr.Txns[i]
		n := r.Route(tx)
		for _, ref := range tx.Refs {
			total++
			if gla.GLA(ref.Page) == n {
				local++
			}
		}
	}
	return float64(local) / float64(total)
}

// setupHyperscale configures one point of the pooled closed loop at a
// constant 100 TPS per node, as core.HyperscaleExperiment builds them.
func setupHyperscale(seed int64) (*plan, error) {
	cfg := core.DefaultDebitCreditConfig(hyperNodes)
	cfg.MPL = 64
	cfg.ClosedLoop = &core.ClosedLoopConfig{TerminalsPerNode: hyperTerminals, ThinkTime: hyperThink, Pooled: true}
	cfg.Warmup, cfg.Measure = 2*time.Second, 4*time.Second
	cfg.Seed = rng.DeriveSeed(seed, "hyperscale")
	runs := []keyedConfig{{fmt.Sprintf("hyperscale/n=%d", hyperNodes), cfg}}
	return &plan{
		desc: fmt.Sprintf("pooled closed loop via core.Run: %d nodes x %d terminals, GEM, NOFORCE, affinity, buffer 200, warm-up %v, measure %v; %d run per pass",
			hyperNodes, hyperTerminals, cfg.Warmup, cfg.Measure, len(runs)),
		pass: func() []result { return runConfigs(runs) },
		shape: func(reps map[string]*core.Report) error {
			// TestPooledClosedLoop: throughput obeys the closed-loop
			// response time law, terminals / (think + RT), within 10%.
			for _, r := range runs {
				rep := reps[r.key]
				if rep == nil {
					return fmt.Errorf("missing run %s", r.key)
				}
				cl := r.cfg.ClosedLoop
				want := float64(cl.TerminalsPerNode*r.cfg.Nodes) / (cl.ThinkTime + rep.Metrics.MeanResponseTime).Seconds()
				if got := rep.Metrics.Throughput; got < 0.9*want || got > 1.1*want {
					return fmt.Errorf("%s: throughput %.1f/s, the closed-loop law wants %.1f/s", r.key, got, want)
				}
			}
			return nil
		},
	}, nil
}

// contentionReplicas is how many seeds each engine runs on. Under the
// hot spot, throughput and restarts swing with the seed far more than
// under debit-credit's uniform load, and so does the host time per
// transaction. With four seeds per engine and 2+8 simulated seconds,
// ns_per_txn spread 7-9% of its median between the first and third
// quartiles of ten seeds, while five runs of one seed stayed within 1.3%
// of each other.
const contentionReplicas = 8

// setupContention configures the engines preset's high hot-spot
// scenario, at the preset's windows, for each engine on
// contentionReplicas seeds; every engine runs on the same seeds, as the
// preset runs all engines on one.
func setupContention(seed int64) (*plan, error) {
	engines := []cc.Kind{cc.KindDefault, cc.KindOCC, cc.KindHAD, cc.KindMVTO}
	var runs []keyedConfig
	for r := 0; r < contentionReplicas; r++ {
		opts := core.EnginesOptions{Seed: rng.DeriveSeed(seed, fmt.Sprintf("contention/%d", r))}
		for _, k := range engines {
			runs = append(runs, keyedConfig{fmt.Sprintf("high/%s/r%d", k, r), core.EnginesConfig(k, core.ScenarioHigh, opts)})
		}
	}
	return &plan{
		desc: fmt.Sprintf("engines preset, high hot spot, via core.Run: 2PL, OCC, HAD, MV-TO on %d seeds each; warm-up %v, measure %v; %d runs per pass",
			contentionReplicas, runs[0].cfg.Warmup, runs[0].cfg.Measure, len(runs)),
		pass: func() []result { return runConfigs(runs) },
		shape: func(reps map[string]*core.Report) error {
			// TestEnginesCrossover: under the concentrated hot spot 2PL
			// out-runs the optimistic engines by more than 20%, here in
			// throughput summed over the seeds.
			tps := make(map[cc.Kind]float64)
			for _, r := range runs {
				rep := reps[r.key]
				if rep == nil {
					return fmt.Errorf("missing run %s", r.key)
				}
				tps[r.cfg.CC] += rep.Metrics.Throughput
			}
			for _, k := range []cc.Kind{cc.KindOCC, cc.KindMVTO} {
				if tps[cc.KindDefault] < 1.2*tps[k] {
					return fmt.Errorf("2PL %.1f tps does not beat %s %.1f tps by 20%%", tps[cc.KindDefault], k, tps[k])
				}
			}
			return nil
		},
	}, nil
}

// runFigures runs experiments through sweep.RunFigure on one worker;
// each run's report comes back through the Progress hook, and the host
// time between two reports, less the reference kernel run in the hook,
// is charged to the later run.
func runFigures(exps []core.Experiment, opts core.ExperimentOptions) []result {
	var out []result
	prev := refKernel()
	last := time.Now()
	opts.Progress = func(expID, series string, nodes int, rep *core.Report) {
		wall := time.Since(last)
		ref := refKernel()
		out = append(out, result{key: figKey(expID, series, nodes), rep: rep, wall: wall, ref: (prev + ref) / 2})
		prev, last = ref, time.Now()
	}
	for i := range exps {
		_, sum, err := sweep.RunFigure(&exps[i], opts, sweep.Engine{Jobs: 1})
		for _, f := range sum.Failures {
			out = append(out, result{key: f.Key, err: errors.New(f.Err)})
		}
		if err != nil && sum.Failed == 0 {
			out = append(out, result{key: exps[i].ID, err: err})
		}
	}
	return out
}

// runConfigs runs each configuration through core.Run, with the
// reference kernel before the first and after every run.
func runConfigs(runs []keyedConfig) []result {
	out := make([]result, len(runs))
	prev := refKernel()
	for i, r := range runs {
		start := time.Now()
		rep, err := core.Run(r.cfg)
		wall := time.Since(start)
		ref := refKernel()
		out[i] = result{key: r.key, rep: rep, err: err, wall: wall, ref: (prev + ref) / 2}
		prev = ref
	}
	return out
}

func figKey(expID, series string, nodes int) string {
	return fmt.Sprintf("%s/%s/n=%d", expID, series, nodes)
}

// slowerRT checks that run slow has a higher mean response time than
// run fast.
func slowerRT(reps map[string]*core.Report, slow, fast string) error {
	s, f := reps[slow], reps[fast]
	if s == nil || f == nil {
		return fmt.Errorf("missing run %s or %s", slow, fast)
	}
	if s.Metrics.MeanResponseTime <= f.Metrics.MeanResponseTime {
		return fmt.Errorf("%s response time %v is not above %s's %v",
			slow, s.Metrics.MeanResponseTime, fast, f.Metrics.MeanResponseTime)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
