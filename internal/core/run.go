package core

import (
	"fmt"
	"strings"
	"time"

	"gemsim/internal/cc"
	"gemsim/internal/fault"
	"gemsim/internal/model"
	"gemsim/internal/node"
	"gemsim/internal/routing"
	"gemsim/internal/sim"
	"gemsim/internal/trace"
	"gemsim/internal/workload"
)

// Report is the result of one simulation run.
type Report struct {
	// Config echoes the executed configuration.
	Config Config
	// Metrics are the measurements collected after warm-up.
	Metrics node.Metrics
	// KernelEvents counts the calendar events the kernel dispatched
	// over the measured interval. It lives outside Metrics because it
	// reflects harness activity too (e.g. the tracing sampler adds
	// events), so it may differ between runs whose measurements are
	// identical.
	KernelEvents int64
	// KernelEventsPerSec is KernelEvents over the measured interval's
	// wall-clock time — the kernel's simulation speed. Wall-clock
	// derived, so never deterministic and never part of result tables.
	KernelEventsPerSec float64
}

// Run executes one configuration and returns its report. The run is
// fully deterministic for a given configuration and seed.
func Run(cfg Config) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}

	gen, router, gla, params, err := assemble(&cfg)
	if err != nil {
		return nil, err
	}

	var (
		tracer *trace.Tracer
		tsw    *trace.TimeSeriesWriter
	)
	if tc := cfg.Tracing; tc != nil {
		if tc.Events != nil {
			tracer = trace.New(tc.Events, tc.Format)
		}
		if tc.TimeSeries != nil {
			tsw = trace.NewTimeSeriesWriter(tc.TimeSeries)
		}
		params.Tracer = tracer
	}

	env := sim.NewEnv()
	defer env.Stop()
	sys, err := node.NewSystem(env, params, gen, router, gla)
	if err != nil {
		return nil, err
	}
	if cfg.Faults != nil {
		plan := fault.Plan{
			Crashes: append([]fault.NodeCrash(nil), cfg.Faults.Crashes...),
			Stalls:  append([]fault.DiskStall(nil), cfg.Faults.DiskStalls...),
		}
		if cfg.Faults.MTBF > 0 || cfg.Faults.MTTR > 0 {
			generated, err := fault.GenerateCrashes(
				cfg.Seed, cfg.Nodes, cfg.Warmup+cfg.Measure, cfg.Faults.MTBF, cfg.Faults.MTTR)
			if err != nil {
				return nil, err
			}
			plan.Crashes = append(plan.Crashes, generated...)
		}
		if err := plan.Validate(cfg.Nodes); err != nil {
			return nil, err
		}
		fault.NewInjector(env, plan, sys).Start()
	}
	if cfg.Control != nil {
		if err := sys.StartControl(cfg.Control); err != nil {
			return nil, err
		}
	}
	if cl := cfg.ClosedLoop; cl != nil {
		if err := sys.StartClosed(cl.TerminalsPerNode, cl.ThinkTime); err != nil {
			return nil, err
		}
	} else {
		sys.Start(cfg.ArrivalRatePerNode)
	}
	if tc := cfg.Tracing; tc != nil {
		interval := tc.SampleInterval
		if interval == 0 {
			interval = 500 * time.Millisecond
		}
		sys.StartSampler(interval, tsw)
	}
	if err := env.Run(cfg.Warmup); err != nil {
		return nil, err
	}
	if err := stalledCheck(env, &cfg); err != nil {
		return nil, err
	}
	sys.ResetStats()
	evBase := env.Dispatched()
	wallStart := time.Now()
	if err := env.Run(cfg.Warmup + cfg.Measure); err != nil {
		return nil, err
	}
	wall := time.Since(wallStart)
	if err := stalledCheck(env, &cfg); err != nil {
		return nil, err
	}
	metrics := sys.Snapshot()
	rep := &Report{Config: cfg, Metrics: metrics}
	rep.KernelEvents = env.Dispatched() - evBase
	if wall > 0 {
		rep.KernelEventsPerSec = float64(rep.KernelEvents) / wall.Seconds()
	}
	if err := tracer.Close(); err != nil {
		return nil, fmt.Errorf("core: event trace: %w", err)
	}
	if err := tsw.Close(); err != nil {
		return nil, fmt.Errorf("core: time series: %w", err)
	}
	return rep, nil
}

// stalledCheck turns a silently wedged simulation into a diagnosable
// error: when the event calendar is exhausted while processes are
// still parked (for instance waiters on a lock that a fault left
// orphaned), the run can make no further progress and would otherwise
// just report truncated measurements.
func stalledCheck(env *sim.Env, cfg *Config) error {
	if !env.Stalled() {
		return nil
	}
	hint := ""
	if cfg.Faults == nil {
		hint = "; a lock-wait timeout (Config.Faults.LockWaitTimeout) makes blocked waiters abort and retry"
	}
	return fmt.Errorf("core: simulation stalled at %v with %d parked processes (%s)%s",
		env.Now(), env.LiveCount(), strings.Join(env.LiveNames(8), ", "), hint)
}

// assemble builds generator, routing and GLA assignment from the
// configuration, and completes its node parameters with what depends
// on the workload.
func assemble(cfg *Config) (workload.Generator, routing.Router, routing.GLAMap, node.Params, error) {
	params := cfg.params()

	var (
		gen    workload.Generator
		router routing.Router
		gla    routing.GLAMap
	)
	switch {
	case cfg.Workload.Trace != nil:
		trace := cfg.Workload.Trace
		gen = workload.NewTraceReplayer(trace)
		// The trace transactions are much larger than debit-credit
		// (dozens of references); the per-reference CPU demand is
		// calibrated so the reported ~45% CPU utilization at 50 TPS
		// per node is reproduced (see DESIGN.md).
		params.BOTInstr = 20000
		params.RefInstr = 5000
		params.EOTInstr = 10000
		// Large trace transactions (up to >11,000 references) stay in
		// the system far longer than debit-credit transactions; raise
		// the multiprogramming level so input queueing stays
		// negligible, as the paper prescribes.
		params.MPL = 256
		aff := routing.ComputeTraceAffinity(trace, cfg.Nodes)
		gla = aff
		switch cfg.Routing {
		case RoutingAffinity:
			router = aff
		case RoutingLoadAware:
			router = node.NewLoadAwareRouter()
		default:
			router = routing.NewRoundRobin(cfg.Nodes)
		}
	default:
		dcParams := workload.DefaultDebitCreditParams(cfg.ArrivalRatePerNode * float64(cfg.Nodes))
		if cfg.Workload.DebitCredit != nil {
			dcParams = *cfg.Workload.DebitCredit
		}
		dc, err := workload.NewDebitCredit(dcParams)
		if err != nil {
			return nil, nil, nil, params, err
		}
		gen = dc
		// The hybrid engine classifies hot pages against the workload's
		// (rotation-aware) hot-spot set.
		params.HotPage = dc.HotPage
		aff := routing.NewDebitCreditAffinity(cfg.Nodes, dcParams)
		gla = aff
		switch cfg.Routing {
		case RoutingAffinity:
			if ctl := cfg.Control; ctl != nil && ctl.Reroute {
				// The controller rewrites branch->node assignments at
				// run time; give it a routing table with an override
				// layer. GLA partitioning stays on the static map (the
				// controller migrates partitions explicitly).
				router = routing.NewAdaptiveAffinity(aff)
			} else {
				router = aff
			}
		case RoutingLoadAware:
			router = node.NewLoadAwareRouter()
		default:
			router = routing.NewRoundRobin(cfg.Nodes)
		}
	}

	// Storage allocation overrides.
	db := gen.Database()
	for name, medium := range cfg.FileMedium {
		f := db.FileByName(name)
		if f == nil {
			return nil, nil, nil, params, fmt.Errorf("core: FileMedium names unknown file %q", name)
		}
		f.Medium = medium
	}
	if len(cfg.DiskCachePages) > 0 {
		params.DiskCachePages = make(map[model.FileID]int, len(cfg.DiskCachePages))
		for name, pages := range cfg.DiskCachePages {
			f := db.FileByName(name)
			if f == nil {
				return nil, nil, nil, params, fmt.Errorf("core: DiskCachePages names unknown file %q", name)
			}
			params.DiskCachePages[f.ID] = pages
		}
	}
	if cfg.MPL > 0 {
		params.MPL = cfg.MPL
	}

	if cfg.Tune != nil {
		cfg.Tune(&params)
	}
	return gen, router, gla, params, nil
}

// ThroughputPerNodeAt returns the achievable transaction rate per node
// at the given CPU utilization target, derived from the measured CPU
// consumption per committed transaction (the paper's Fig. 4.6 metric).
func (r *Report) ThroughputPerNodeAt(utilization float64) float64 {
	if r.Metrics.CPUSecondsPerTxn <= 0 {
		return 0
	}
	// CPUSecondsPerTxn is system-wide busy time per committed
	// transaction; one node contributes CPUsPerNode cpu-seconds per
	// second of capacity.
	return utilization * float64(r.Metrics.CPUsPerNode) / r.Metrics.CPUSecondsPerTxn
}

// String renders a one-line summary of the report.
func (r *Report) String() string {
	m := &r.Metrics
	eng := ""
	if r.Config.CC != cc.KindDefault {
		eng = " cc=" + r.Config.CC.String()
	}
	return fmt.Sprintf("N=%d %s %s %s%s buf=%d: RT=%.1fms tput=%.1f/s cpu=%.0f%% inval/tx=%.2f msgs/tx=%.2f",
		r.Config.Nodes, r.Config.Coupling, updateName(r.Config.Force), r.Config.Routing, eng,
		r.Config.BufferPages,
		float64(m.MeanResponseTime)/float64(time.Millisecond),
		m.Throughput, m.MeanCPUUtilization*100, m.InvalidationsPerTxn, m.MessagesPerTxn)
}

func updateName(force bool) string {
	if force {
		return "FORCE"
	}
	return "NOFORCE"
}
