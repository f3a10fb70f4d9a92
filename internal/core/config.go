// Package core is the public façade of the simulator: a declarative
// Config describing one database sharing configuration (coupling mode,
// update strategy, workload, routing, storage allocation), a Run
// function executing it with warm-up handling, and a Report with the
// measured metrics. The experiments of the paper's evaluation section
// are available as presets in experiments.go.
package core

import (
	"fmt"
	"io"
	"time"

	"gemsim/internal/cc"
	"gemsim/internal/fault"
	"gemsim/internal/model"
	"gemsim/internal/node"
	"gemsim/internal/recovery"
	"gemsim/internal/trace"
	"gemsim/internal/workload"
)

// Re-exported coupling modes.
const (
	CouplingGEM = node.CouplingGEM
	CouplingPCL = node.CouplingPCL
	// CouplingLockEngine is the [Yu87] related-work baseline: a
	// centralized lock engine with 100-500 µs service time, broadcast
	// invalidation and FORCE update propagation.
	CouplingLockEngine = node.CouplingLockEngine
)

// Coupling selects close (GEM) or loose (PCL) coupling.
type Coupling = node.Coupling

// Routing selects the workload allocation strategy.
type Routing int

const (
	// RoutingRandom spreads transactions evenly over all nodes.
	RoutingRandom Routing = iota + 1
	// RoutingAffinity uses branch partitioning (debit-credit) or a
	// computed routing table (traces) to maximize node-specific
	// locality.
	RoutingAffinity
	// RoutingLoadAware assigns each transaction to the node with the
	// fewest active transactions, using system-wide status
	// information kept in GEM (section 2's load control usage form).
	RoutingLoadAware
)

// String names the routing strategy.
func (r Routing) String() string {
	switch r {
	case RoutingRandom:
		return "random"
	case RoutingAffinity:
		return "affinity"
	case RoutingLoadAware:
		return "loadaware"
	default:
		return "routing?"
	}
}

// WorkloadConfig selects and parameterizes the workload. Exactly one of
// DebitCredit or Trace must be set.
type WorkloadConfig struct {
	// DebitCredit generates the TPC-A/B style workload; if nil and
	// Trace is nil, Table 4.1 defaults scaled to the configured
	// throughput are used.
	DebitCredit *workload.DebitCreditParams
	// Trace replays a (recorded or synthetic) database trace.
	Trace *workload.Trace
}

// ClosedLoopConfig parameterizes the closed (terminal) workload model.
type ClosedLoopConfig struct {
	// TerminalsPerNode is the number of terminals bound to each node.
	TerminalsPerNode int
	// ThinkTime is the mean think time between a response and the
	// next request.
	ThinkTime time.Duration
	// Pooled selects the hyperscale terminal source: idle terminals are
	// calendar events instead of goroutines, so terminal populations in
	// the millions cost one pending event each. Pooled runs are
	// deterministic but draw random numbers differently from the
	// per-terminal source, so results are not byte-comparable with
	// Pooled off.
	Pooled bool
}

// FaultConfig enables fault injection: node crashes with in-simulation
// failover and recovery, random message loss, and disk stalls. All
// times are absolute simulation times (warm-up included). Fault runs
// remain fully deterministic for a given seed.
type FaultConfig struct {
	// Crashes schedules explicit node failures.
	Crashes []fault.NodeCrash
	// MTBF and MTTR, when both positive, additionally generate a
	// stochastic crash schedule (exponential inter-failure and repair
	// times over the whole complex) from the run seed.
	MTBF time.Duration
	MTTR time.Duration
	// MessageLossProb drops each regular network message with this
	// probability in [0,1). Protocol messages whose loss would wedge
	// the complex (lock releases, RA revocations, recovery traffic)
	// are delivered reliably, modelling transport-level retransmission.
	MessageLossProb float64
	// DiskStalls freezes disk groups (file name, or "logN" for node N's
	// log disks) for a while.
	DiskStalls []fault.DiskStall
	// LockWaitTimeout bounds every lock wait and remote reply wait;
	// a timed-out transaction aborts and is retried with exponential
	// backoff. Default 2s.
	LockWaitTimeout time.Duration
	// CheckpointInterval is the fuzzy checkpoint period; it bounds the
	// log that must be scanned when a node is recovered. Default 10s.
	CheckpointInterval time.Duration
	// DetectDelay is the failure detection latency between a crash and
	// the start of recovery on the survivors. Default 50ms.
	DetectDelay time.Duration
	// Reopen selects when transactions are readmitted after a crash:
	// recovery.ReopenOffline (default) completes the whole REDO replay
	// first; recovery.ReopenIncremental admits transactions while
	// replay is in flight, repairing unredone pages on first touch.
	Reopen recovery.ReopenPolicy
	// RecoveryWorkers is the number of parallel replay workers the
	// recovery coordinator spawns; the REDO backlog is partitioned by
	// GLA across them. 0 or 1 keeps the serial replay of earlier
	// versions.
	RecoveryWorkers int
	// AvailabilityWindow is the sampling window of the availability
	// tracker (time-to-full-throughput, per-window unavailability, SLO
	// attainment). Default 250ms.
	AvailabilityWindow time.Duration
}

// TraceConfig enables the observability layer: a per-transaction event
// trace, a windowed time-series of system metrics, and per-transaction
// phase accounting. All output is keyed on simulated time and fully
// deterministic for a given configuration and seed. When Events and
// TimeSeries are both nil, only phase accounting is enabled.
type TraceConfig struct {
	// Events, if non-nil, receives the event trace: transaction spans,
	// lock waits, device service intervals, fault/recovery phases.
	Events io.Writer
	// Format selects the event encoding: trace.JSONL (default, one
	// event per line) or trace.Perfetto (a Chrome trace_event JSON
	// document loadable in ui.perfetto.dev).
	Format trace.Format
	// TimeSeries, if non-nil, receives windowed JSONL samples
	// (throughput, response time, utilizations, queue depths).
	TimeSeries io.Writer
	// SampleInterval is the time-series window length (default 500ms).
	SampleInterval time.Duration
}

// AttributionConfig tunes the bottleneck attribution engine: per-
// transaction critical-path accounting, per-station operational-law
// self-validation, and lock wait-for snapshots on the event trace. The
// zero value is the default: attribution ON with the default law
// tolerance. Attribution is pure accounting — it schedules no events
// and draws no random numbers — so enabling it never changes any
// simulated result.
type AttributionConfig struct {
	// Off disables all attribution accounting (benchmark ablations).
	Off bool
	// Tolerance is the relative residual above which a Little's-law or
	// utilization-law self-check warns; 0 means attrib.DefaultTolerance.
	Tolerance float64
}

// Config describes one simulated configuration.
type Config struct {
	// Nodes is the number of processing nodes (1-10 in the paper).
	Nodes int
	// ArrivalRatePerNode is the transaction arrival rate per node in
	// TPS (100 for debit-credit, 50 for the trace experiments).
	ArrivalRatePerNode float64
	// Coupling selects GEM locking or primary copy locking.
	Coupling Coupling
	// Force selects the FORCE update strategy; otherwise NOFORCE.
	Force bool
	// Routing selects random or affinity-based transaction routing.
	Routing Routing
	// CC selects the concurrency-control engine: cc.KindDefault (the
	// coupling mode's native two-phase locking protocol), cc.KindMVTO
	// (multiversion timestamp ordering), cc.KindOCC (backward-validation
	// optimistic), or cc.KindHAD (hot/cold hybrid: the workload's
	// hot-spot pages through locking, the cold tail through OCC).
	CC cc.Kind
	// BufferPages is the database buffer size per node (200 or 1000).
	BufferPages int
	// MPL, when positive, overrides the multiprogramming level per
	// node (the workload defaults are 64 for debit-credit and 256 for
	// traces). Exposed here so sweeps can use it as an axis.
	MPL int

	// Workload selects debit-credit (default) or a trace.
	Workload WorkloadConfig

	// FileMedium overrides the storage medium per file name (e.g.
	// allocate "BRANCH/TELLER" to GEM or to a cached disk group).
	FileMedium map[string]model.Medium
	// DiskCachePages sizes shared disk caches per file name; by
	// default a cache holds the whole file.
	DiskCachePages map[string]int
	// LogInGEM allocates the log files to GEM.
	LogInGEM bool
	// GEMMessaging exchanges all messages across GEM instead of the
	// interconnection network (section 2's "general application").
	GEMMessaging bool
	// GlobalLogMerge adds the background global log merge process
	// (requires LogInGEM).
	GlobalLogMerge bool

	// ClosedLoop, if non-nil, replaces the open Poisson source with a
	// closed terminal model: Terminals per node, each thinking for an
	// exponentially distributed time between transactions.
	// ArrivalRatePerNode is ignored in this mode.
	ClosedLoop *ClosedLoopConfig

	// Warmup and Measure bound the simulation: statistics cover
	// [Warmup, Warmup+Measure).
	Warmup  time.Duration
	Measure time.Duration

	// Seed drives all stochastic components (default 1).
	Seed int64
	// CheckInvariants enables the coherency oracle.
	CheckInvariants bool

	// Faults, if non-nil, enables fault injection (node crashes with
	// measured failover, message loss, disk stalls).
	Faults *FaultConfig

	// Tracing, if non-nil, enables the observability layer: event
	// trace, time-series sampling, and per-transaction phase
	// accounting (Report.Metrics.Phases).
	Tracing *TraceConfig

	// Attribution tunes the bottleneck attribution engine; the zero
	// value keeps it on with default settings (Metrics.Attribution,
	// Metrics.StationLaws, Metrics.DominantBottleneck).
	Attribution AttributionConfig

	// Control, if non-nil, enables the adaptive load-control subsystem:
	// feedback-driven admission control per node (the effective MPL
	// follows the measured conflict rate instead of the static limit)
	// and periodic re-routing of hot branches away from overloaded
	// nodes, with GLA partition migration under PCL. Nil keeps the
	// static allocation; the results are then bit-identical to runs
	// built before the controller existed.
	Control *node.ControlConfig

	// Tune, if set, adjusts the low-level node parameters after the
	// defaults are applied (ablations, sensitivity studies).
	Tune func(*node.Params)
}

// DefaultDebitCreditConfig returns the Table 4.1 configuration for the
// given number of nodes: 100 TPS per node, buffer 200 pages, GEM
// coupling, NOFORCE, affinity routing, all files on disk.
func DefaultDebitCreditConfig(nodes int) Config {
	return Config{
		Nodes:              nodes,
		ArrivalRatePerNode: 100,
		Coupling:           CouplingGEM,
		Force:              false,
		Routing:            RoutingAffinity,
		BufferPages:        200,
		Warmup:             5 * time.Second,
		Measure:            20 * time.Second,
		Seed:               1,
	}
}

// DefaultTraceConfig returns the section 4.6 configuration: 50 TPS per
// node, buffer 1000 pages, NOFORCE.
func DefaultTraceConfig(nodes int, trace *workload.Trace) Config {
	return Config{
		Nodes:              nodes,
		ArrivalRatePerNode: 50,
		Coupling:           CouplingGEM,
		Force:              false,
		Routing:            RoutingAffinity,
		BufferPages:        1000,
		Workload:           WorkloadConfig{Trace: trace},
		Warmup:             5 * time.Second,
		Measure:            20 * time.Second,
		Seed:               1,
	}
}

// validate checks the configuration.
func (c *Config) validate() error {
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("core: Nodes must be positive, got %d", c.Nodes)
	case c.ArrivalRatePerNode <= 0:
		return fmt.Errorf("core: ArrivalRatePerNode must be positive, got %v", c.ArrivalRatePerNode)
	case c.Coupling != CouplingGEM && c.Coupling != CouplingPCL && c.Coupling != CouplingLockEngine:
		return fmt.Errorf("core: invalid coupling %v", c.Coupling)
	case c.Coupling == CouplingLockEngine && !c.Force:
		return fmt.Errorf("core: the lock engine baseline uses FORCE update propagation")
	case c.Routing != RoutingRandom && c.Routing != RoutingAffinity && c.Routing != RoutingLoadAware:
		return fmt.Errorf("core: invalid routing %v", c.Routing)
	case c.BufferPages <= 0:
		return fmt.Errorf("core: BufferPages must be positive, got %d", c.BufferPages)
	case c.MPL < 0:
		return fmt.Errorf("core: MPL must be non-negative, got %d", c.MPL)
	case c.Measure <= 0:
		return fmt.Errorf("core: Measure must be positive, got %v", c.Measure)
	case c.Warmup < 0:
		return fmt.Errorf("core: Warmup must be non-negative, got %v", c.Warmup)
	case c.Workload.DebitCredit != nil && c.Workload.Trace != nil:
		return fmt.Errorf("core: set at most one of Workload.DebitCredit and Workload.Trace")
	case c.ClosedLoop != nil && c.ClosedLoop.TerminalsPerNode <= 0:
		return fmt.Errorf("core: ClosedLoop.TerminalsPerNode must be positive")
	case c.ClosedLoop != nil && c.ClosedLoop.ThinkTime < 0:
		return fmt.Errorf("core: ClosedLoop.ThinkTime must be non-negative, got %v", c.ClosedLoop.ThinkTime)
	case c.GlobalLogMerge && !c.LogInGEM:
		return fmt.Errorf("core: GlobalLogMerge requires LogInGEM")
	case !cc.Valid(c.CC):
		return fmt.Errorf("core: invalid CC engine %v", c.CC)
	case c.CC != cc.KindDefault && c.Coupling == CouplingLockEngine:
		return fmt.Errorf("core: the lock engine baseline is hard-wired to its native 2PL protocol (use GEM or PCL coupling with an alternative engine)")
	case c.CC == cc.KindMVTO && c.Force:
		return fmt.Errorf("core: MV-TO serves reads from its version store; FORCE update propagation does not apply (use NOFORCE)")
	case c.CC != cc.KindDefault && c.CheckInvariants:
		return fmt.Errorf("core: the coherency oracle assumes two-phase locking; optimistic engines legitimately observe versions it would reject")
	}
	if c.Attribution.Tolerance < 0 {
		return fmt.Errorf("core: Attribution.Tolerance must be non-negative, got %v", c.Attribution.Tolerance)
	}
	if tc := c.Tracing; tc != nil {
		if tc.SampleInterval < 0 {
			return fmt.Errorf("core: Tracing.SampleInterval must be non-negative, got %v", tc.SampleInterval)
		}
		if tc.Format != trace.JSONL && tc.Format != trace.Perfetto {
			return fmt.Errorf("core: invalid Tracing.Format %v", tc.Format)
		}
	}
	if ctl := c.Control; ctl != nil {
		if err := ctl.Validate(); err != nil {
			return err
		}
		if c.Coupling == CouplingLockEngine {
			return fmt.Errorf("core: adaptive control is not supported for the lock engine baseline")
		}
		if ctl.Reroute && c.Workload.Trace != nil {
			return fmt.Errorf("core: Control.Reroute requires the debit-credit workload (trace routing tables are precomputed)")
		}
	}
	if f := c.Faults; f != nil {
		switch {
		case c.Coupling == CouplingLockEngine:
			return fmt.Errorf("core: fault injection is not supported for the lock engine baseline")
		case c.CheckInvariants:
			return fmt.Errorf("core: CheckInvariants cannot be combined with Faults (crashes legitimately lose uncommitted state)")
		case f.MessageLossProb < 0 || f.MessageLossProb >= 1:
			return fmt.Errorf("core: Faults.MessageLossProb must be in [0,1), got %v", f.MessageLossProb)
		case (f.MTBF > 0) != (f.MTTR > 0):
			return fmt.Errorf("core: Faults.MTBF and Faults.MTTR must be set together")
		case f.LockWaitTimeout < 0 || f.CheckpointInterval < 0 || f.DetectDelay < 0:
			return fmt.Errorf("core: Faults timings must be non-negative")
		case c.Nodes < 2 && (len(f.Crashes) > 0 || f.MTBF > 0):
			return fmt.Errorf("core: node crashes need at least 2 nodes (no survivor to recover)")
		case f.Reopen != recovery.ReopenOffline && f.Reopen != recovery.ReopenIncremental:
			return fmt.Errorf("core: invalid Faults.Reopen policy %d", f.Reopen)
		case f.RecoveryWorkers < 0:
			return fmt.Errorf("core: Faults.RecoveryWorkers must be non-negative, got %d", f.RecoveryWorkers)
		case f.AvailabilityWindow < 0:
			return fmt.Errorf("core: Faults.AvailabilityWindow must be non-negative, got %v", f.AvailabilityWindow)
		}
	}
	return nil
}
