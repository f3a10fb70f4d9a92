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

	"gemsim/internal/fault"
	"gemsim/internal/model"
	"gemsim/internal/node"
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
	// Deprecated: ignored; every closed loop is pooled (idle terminals
	// are calendar events, not goroutines).
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
	// RecoveryKnobs holds the lock-wait timeout, checkpoint interval,
	// detection delay, reopen policy, replay workers and availability
	// window; zero fields take their defaults (node.Params.ArmFaults).
	// It stays the last field: the sweep digest marshals FaultConfig,
	// and embedded fields marshal in place.
	node.RecoveryKnobs
}

// TraceConfig enables the observability outputs: a per-transaction
// event trace and a windowed time-series of system metrics. All output
// is keyed on simulated time and fully deterministic for a given
// configuration and seed. Per-phase response-time accounting needs no
// tracing: it is part of the attribution record (Report.Metrics.Phases),
// which is on unless Attribution.Off is set.
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

// AttributionConfig tunes the bottleneck attribution engine; the zero
// value keeps it on with default settings.
type AttributionConfig = node.AttributionConfig

// Config describes one simulated configuration.
type Config struct {
	// Nodes is the number of processing nodes (1-10 in the paper).
	Nodes int
	// ArrivalRatePerNode is the transaction arrival rate per node in
	// TPS (100 for debit-credit, 50 for the trace experiments).
	ArrivalRatePerNode float64
	// ModelKnobs holds the settings node.Params shares: Coupling, Force,
	// CC, BufferPages, LogInGEM, GEMMessaging, GlobalLogMerge, Seed
	// (default 1), CheckInvariants, Attribution and the low-level
	// LockInstr, InstantWakeup and GEMPageTransfer.
	node.ModelKnobs
	// Routing selects random or affinity-based transaction routing.
	Routing Routing
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

	// ClosedLoop, if non-nil, replaces the open Poisson source with a
	// closed terminal model: Terminals per node, each thinking for an
	// exponentially distributed time between transactions.
	// ArrivalRatePerNode is ignored in this mode.
	ClosedLoop *ClosedLoopConfig

	// Warmup and Measure bound the simulation: statistics cover
	// [Warmup, Warmup+Measure).
	Warmup  time.Duration
	Measure time.Duration

	// Faults, if non-nil, enables fault injection (node crashes with
	// measured failover, message loss, disk stalls).
	Faults *FaultConfig

	// Tracing, if non-nil, enables the observability outputs: event
	// trace and time-series sampling.
	Tracing *TraceConfig

	// Control enables the adaptive load-control subsystem: feedback-driven
	// admission control per node (the effective MPL follows the measured
	// conflict rate instead of the static limit) and periodic re-routing
	// of hot branches away from overloaded nodes, with GLA partition
	// migration under PCL. Its tuning is fixed (package control and
	// internal/node/adaptive.go). Off keeps the static allocation; the
	// results are then bit-identical to runs built before the controller
	// existed.
	Control bool
}

// DefaultDebitCreditConfig returns the Table 4.1 configuration for the
// given number of nodes: 100 TPS per node, buffer 200 pages, GEM
// coupling, NOFORCE, affinity routing, all files on disk.
func DefaultDebitCreditConfig(nodes int) Config {
	return Config{
		Nodes:              nodes,
		ArrivalRatePerNode: 100,
		ModelKnobs:         node.ModelKnobs{Coupling: CouplingGEM, BufferPages: 200, Seed: 1},
		Routing:            RoutingAffinity,
		Warmup:             5 * time.Second,
		Measure:            20 * time.Second,
	}
}

// DefaultTraceConfig returns the section 4.6 configuration: 50 TPS per
// node, buffer 1000 pages, NOFORCE.
func DefaultTraceConfig(nodes int, trace *workload.Trace) Config {
	return Config{
		Nodes:              nodes,
		ArrivalRatePerNode: 50,
		ModelKnobs:         node.ModelKnobs{Coupling: CouplingGEM, BufferPages: 1000, Seed: 1},
		Routing:            RoutingAffinity,
		Workload:           WorkloadConfig{Trace: trace},
		Warmup:             5 * time.Second,
		Measure:            20 * time.Second,
	}
}

// params derives the node parameters the configuration fixes before
// its workload is built: the Table 4.1 defaults, the shared model
// knobs and, when faults are armed, the recovery settings and message
// loss.
func (c *Config) params() node.Params {
	p := node.DefaultParams(c.Nodes)
	p.ModelKnobs = c.ModelKnobs
	if f := c.Faults; f != nil {
		p.RecoveryKnobs = f.RecoveryKnobs
		p.Net.LossProb = f.MessageLossProb
		p.ArmFaults()
	}
	return p
}

// validate checks the configuration. The model rules live in
// node.Params.Validate; the rules here concern what only Config has.
func (c *Config) validate() error {
	p := c.params()
	if err := p.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	switch {
	case c.ArrivalRatePerNode <= 0:
		return fmt.Errorf("core: ArrivalRatePerNode must be positive, got %v", c.ArrivalRatePerNode)
	case c.Routing != RoutingRandom && c.Routing != RoutingAffinity && c.Routing != RoutingLoadAware:
		return fmt.Errorf("core: invalid routing %v", c.Routing)
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
	}
	if tc := c.Tracing; tc != nil {
		if tc.SampleInterval < 0 {
			return fmt.Errorf("core: Tracing.SampleInterval must be non-negative, got %v", tc.SampleInterval)
		}
		if tc.Format != trace.JSONL && tc.Format != trace.Perfetto {
			return fmt.Errorf("core: invalid Tracing.Format %v", tc.Format)
		}
	}
	if c.Control {
		if c.Coupling == CouplingLockEngine {
			return fmt.Errorf("core: adaptive control is not supported for the lock engine baseline")
		}
		if c.Workload.Trace != nil {
			return fmt.Errorf("core: adaptive control requires the debit-credit workload (trace routing tables are precomputed)")
		}
	}
	if f := c.Faults; f != nil {
		if c.Nodes < 2 && (len(f.Crashes) > 0 || f.MTBF > 0) {
			return fmt.Errorf("core: node crashes need at least 2 nodes (no survivor to recover)")
		}
		return f.validate()
	}
	return nil
}

// validate checks the fault block on its own, independent of the rest
// of the configuration (message loss is checked with the node
// parameters it feeds).
func (f *FaultConfig) validate() error {
	switch {
	case f.MTBF < 0 || f.MTTR < 0:
		return fmt.Errorf("core: Faults.MTBF and Faults.MTTR must be positive, got %v and %v", f.MTBF, f.MTTR)
	case (f.MTBF > 0) != (f.MTTR > 0):
		return fmt.Errorf("core: Faults.MTBF and Faults.MTTR must be set together")
	}
	if err := f.ValidateRecovery(); err != nil {
		return fmt.Errorf("core: Faults: %w", err)
	}
	return nil
}
