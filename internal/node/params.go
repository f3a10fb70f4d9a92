// Package node implements the processing nodes of the database sharing
// complex and its concurrency/coherency control protocols: GEM locking
// (a global lock table in Global Extended Memory, close coupling),
// primary copy locking (PCL, loose coupling), and the centralized lock
// engine baseline of the related work. It ties together the CPU
// servers, buffer manager, communication subsystem, lock tables,
// logging and external storage into a complete transaction processing
// system driven by the simulation kernel.
package node

import (
	"time"

	"gemsim/internal/cc"
	"gemsim/internal/gem"
	"gemsim/internal/model"
	"gemsim/internal/netsim"
	"gemsim/internal/recovery"
	"gemsim/internal/trace"
)

// Coupling selects the system architecture.
type Coupling int

const (
	// CouplingGEM is the closely coupled configuration: global
	// concurrency and coherency control through a global lock table
	// in GEM.
	CouplingGEM Coupling = iota + 1
	// CouplingPCL is the loosely coupled configuration: primary copy
	// locking with message-based lock processing.
	CouplingPCL
	// CouplingLockEngine is the centralized lock engine architecture
	// of [Yu87] (related work baseline): a special-purpose lock
	// processor with 100-500 µs service time, broadcast invalidation
	// and FORCE update propagation.
	CouplingLockEngine
)

// String names the coupling mode.
func (c Coupling) String() string {
	switch c {
	case CouplingGEM:
		return "GEM"
	case CouplingPCL:
		return "PCL"
	case CouplingLockEngine:
		return "LE"
	default:
		return "coupling?"
	}
}

// LockEngineParams configures the centralized lock engine.
type LockEngineParams struct {
	// ServiceTime is the engine's service time per lock or unlock
	// operation ([Yu87] assumed 100-500 µs).
	ServiceTime time.Duration
}

// Params configures the processing node complex (Table 4.1 defaults are
// provided by DefaultParams).
type Params struct {
	// Nodes is the number of processing nodes.
	Nodes int
	// CPUsPerNode and MIPSPerCPU describe the CPU complex (4 x 10
	// MIPS).
	CPUsPerNode int
	MIPSPerCPU  float64
	// MPL is the multiprogramming level per node (paper: high enough
	// to avoid input queueing).
	MPL int
	// BufferPages is the main memory database buffer size per node.
	BufferPages int
	// Force selects the FORCE update strategy (write all modified
	// pages at commit); otherwise NOFORCE.
	Force bool
	// Coupling selects GEM locking or primary copy locking.
	Coupling Coupling
	// CC selects the concurrency-control engine; the zero value keeps
	// the coupling mode's native two-phase locking protocol, so default
	// runs are unchanged.
	CC cc.Kind
	// HotPage classifies a page as part of the workload's current hot
	// set at simulated time at (the HAD engine's hot/cold routing).
	// Wired from the workload's skew model; nil means no hot set and
	// HAD degenerates to OCC.
	HotPage func(page model.PageID, at time.Duration) bool

	// Tracer, when non-nil, receives event spans from every simulated
	// component (transactions, CPUs, GEM, disks, network, recovery). A
	// nil tracer disables event tracing at zero cost; timestamps carry
	// simulated time only, so traced runs stay deterministic.
	Tracer *trace.Tracer
	// PhaseBreakdown enables per-transaction response time phase
	// accounting (trace.Breakdown). Enabled automatically whenever
	// tracing or time-series sampling is configured through core.
	PhaseBreakdown bool

	// AttribOff disables the bottleneck attribution engine (package
	// attrib). Attribution is on by default: it is pure accounting —
	// no events, no random draws — so it never changes simulation
	// results, and its per-commit cost is a handful of additions.
	AttribOff bool
	// AttribTolerance is the relative residual above which the
	// operational-law self-checks (Little's law, utilization law) emit
	// a warning; zero means attrib.DefaultTolerance.
	AttribTolerance float64

	// BOTInstr, RefInstr and EOTInstr are the mean instruction counts
	// charged at begin-of-transaction, per record access, and at
	// end-of-transaction; each actual demand is exponentially
	// distributed.
	BOTInstr float64
	RefInstr float64
	EOTInstr float64
	// IOInstr is the CPU overhead per disk I/O (3000); GEMIOInstr the
	// initialization overhead per GEM page I/O (300).
	IOInstr    float64
	GEMIOInstr float64
	// LockInstr is the local lock/unlock handling cost per request.
	LockInstr float64

	// RestartDelayMean is the mean back-off before restarting a
	// deadlock victim.
	RestartDelayMean time.Duration

	// GEM and Net are the device parameters.
	GEM gem.Params
	Net netsim.Params
	// LockEngine configures the [Yu87] baseline used with
	// CouplingLockEngine.
	LockEngine LockEngineParams

	// LogInGEM allocates the log files to GEM instead of log disks.
	LogInGEM bool
	// GlobalLogMerge runs a background merge process (at node 0) that
	// builds a global log from the GEM-resident local logs, one of the
	// GEM usage forms of section 2 ("to efficiently construct a global
	// log by merging local log data"). Requires LogInGEM.
	GlobalLogMerge bool
	// LogMergeInterval is the merge process wake-up interval.
	LogMergeInterval time.Duration
	// LogMergeInstr is the CPU cost of merging one log page.
	LogMergeInstr float64
	// InstantWakeup makes GEM lock wakeups free instead of sending a
	// short message to the waiting node (ablation switch).
	InstantWakeup bool
	// GEMPageTransfer routes NOFORCE page exchanges between nodes
	// through GEM (two page accesses) instead of the communication
	// system (extension discussed in the paper's conclusions).
	GEMPageTransfer bool
	// GEMMessaging exchanges all messages across GEM instead of the
	// interconnection network (the "general application" of GEM in
	// section 2 of the paper). GEMMsgShortInstr/GEMMsgLongInstr are
	// the per-operation CPU overheads of the storage-based protocol.
	GEMMessaging     bool
	GEMMsgShortInstr float64
	GEMMsgLongInstr  float64

	// DisksPerFile overrides the number of disks in a file's disk
	// group; files absent from the map get DefaultDisksPerFile.
	DisksPerFile map[model.FileID]int
	// DefaultDisksPerFile sizes disk groups so that no I/O bottleneck
	// occurs (the paper allocates "a sufficient number of disks").
	DefaultDisksPerFile int
	// DiskCachePages sizes the shared disk cache of files allocated
	// to a cached medium.
	DiskCachePages map[model.FileID]int

	// CheckInvariants enables the coherency oracle: every page access
	// is validated against a global view of committed versions.
	CheckInvariants bool

	// FaultsEnabled arms the failure machinery: lock-wait timeouts,
	// down-node routing, checkpointing and crash recovery. With it off
	// (the default) none of the fault paths is ever taken and fault-free
	// runs are bit-identical to earlier versions.
	FaultsEnabled bool
	// LockWaitTimeout aborts (and retries) a transaction whose lock
	// wait exceeds it; this is what lets the system degrade instead of
	// hanging when a lock holder dies or a grant message is lost. 0
	// disables timeouts.
	LockWaitTimeout time.Duration
	// RetryBackoffCap bounds the exponential back-off applied to
	// timeout retries (the back-off doubles per consecutive timeout,
	// starting from RestartDelayMean).
	RetryBackoffCap time.Duration
	// CheckpointInterval is the fuzzy checkpoint period per node; the
	// redo log scan after a crash covers the log written since the last
	// checkpoint. 0 disables checkpointing (the scan covers the whole
	// run).
	CheckpointInterval time.Duration
	// FailureDetectDelay is the time until the survivors notice a crash
	// and start recovery.
	FailureDetectDelay time.Duration
	// RecoveryApplyInstr is the CPU demand of applying the log records
	// of one redone page (5000 instr = 0.5 ms at 10 MIPS, matching
	// recovery.Params.RedoApplyPerPage).
	RecoveryApplyInstr float64
	// RecoveryEntryInstr is the CPU demand per lock entry read or
	// re-registered during lock state recovery.
	RecoveryEntryInstr float64
	// Reopen selects when transactions are readmitted after a crash:
	// recovery.ReopenOffline holds new work on the fences until the
	// whole REDO backlog is replayed (the behavior of earlier
	// versions); recovery.ReopenIncremental reopens as soon as the lock
	// state is recovered and repairs unredone pages on first touch.
	Reopen recovery.ReopenPolicy
	// RecoveryWorkers is the number of replay workers; the REDO
	// backlog is partitioned by GLA partition across them
	// (longest-backlog-first). The recovery coordinator is worker 0,
	// so 0 or 1 means it replays alone.
	RecoveryWorkers int
	// AvailabilityWindow is the sampling window of the availability
	// tracker measuring time-to-full-throughput and per-window
	// unavailability (fault runs only; default 250ms).
	AvailabilityWindow time.Duration

	// Seed drives all stochastic model components.
	Seed int64
}

// DefaultParams returns the Table 4.1 settings for the given node
// count. The 250,000 instruction path length is split as 30,000 at BOT,
// 50,000 per record access (four accesses) and 20,000 at EOT.
func DefaultParams(nodes int) Params {
	return Params{
		Nodes:               nodes,
		CPUsPerNode:         4,
		MIPSPerCPU:          10,
		MPL:                 64,
		BufferPages:         200,
		Force:               false,
		Coupling:            CouplingGEM,
		BOTInstr:            30000,
		RefInstr:            50000,
		EOTInstr:            20000,
		IOInstr:             3000,
		GEMIOInstr:          300,
		LockInstr:           0,
		RestartDelayMean:    10 * time.Millisecond,
		GEM:                 gem.DefaultParams(),
		Net:                 netsim.DefaultParams(),
		LockEngine:          LockEngineParams{ServiceTime: 200 * time.Microsecond},
		GEMMsgShortInstr:    1000,
		GEMMsgLongInstr:     1500,
		LogMergeInterval:    100 * time.Millisecond,
		LogMergeInstr:       1000,
		DefaultDisksPerFile: 4 * nodes,
		Seed:                1,
	}
}

// Validate checks the parameters for consistency.
func (p *Params) Validate() error {
	switch {
	case p.Nodes <= 0:
		return errParam("Nodes must be positive")
	case p.CPUsPerNode <= 0 || p.MIPSPerCPU <= 0:
		return errParam("CPU configuration must be positive")
	case p.MPL <= 0:
		return errParam("MPL must be positive")
	case p.BufferPages <= 0:
		return errParam("BufferPages must be positive")
	case p.Coupling != CouplingGEM && p.Coupling != CouplingPCL && p.Coupling != CouplingLockEngine:
		return errParam("Coupling must be GEM, PCL or LockEngine")
	case p.Coupling == CouplingLockEngine && !p.Force:
		return errParam("the lock engine architecture [Yu87] uses FORCE update propagation")
	case p.Coupling == CouplingLockEngine && p.LockEngine.ServiceTime <= 0:
		return errParam("LockEngine.ServiceTime must be positive")
	case p.CC != cc.KindDefault && p.Coupling == CouplingLockEngine:
		return errParam("the lock engine baseline is hard-wired to its native 2PL protocol (use GEM or PCL coupling with an alternative engine)")
	case p.CC == cc.KindMVTO && p.Force:
		return errParam("MV-TO serves reads from its version store; FORCE update propagation does not apply (use NOFORCE)")
	case p.CC != cc.KindDefault && p.CheckInvariants:
		return errParam("the coherency oracle assumes two-phase locking; optimistic engines legitimately observe versions it would reject")
	case p.BOTInstr < 0 || p.RefInstr < 0 || p.EOTInstr < 0:
		return errParam("instruction demands must be non-negative")
	case p.DefaultDisksPerFile <= 0:
		return errParam("DefaultDisksPerFile must be positive")
	case p.GlobalLogMerge && !p.LogInGEM:
		return errParam("GlobalLogMerge requires LogInGEM (the merge reads the GEM-resident local logs)")
	case p.FaultsEnabled && p.Coupling == CouplingLockEngine:
		return errParam("fault injection is not supported for the lock engine baseline (its broadcast protocol has no timeout recovery)")
	case p.FaultsEnabled && p.CheckInvariants:
		return errParam("fault injection is incompatible with CheckInvariants (recovery approximations violate the oracle's strict coherency view)")
	case p.LockWaitTimeout < 0 || p.RetryBackoffCap < 0 || p.CheckpointInterval < 0 || p.FailureDetectDelay < 0:
		return errParam("fault timing parameters must be non-negative")
	case p.RecoveryApplyInstr < 0 || p.RecoveryEntryInstr < 0:
		return errParam("recovery instruction demands must be non-negative")
	case p.Reopen != recovery.ReopenOffline && p.Reopen != recovery.ReopenIncremental:
		return errParam("Reopen must be offline or incremental")
	case p.RecoveryWorkers < 0:
		return errParam("RecoveryWorkers must be non-negative")
	case p.AvailabilityWindow < 0:
		return errParam("AvailabilityWindow must be non-negative")
	case p.Net.LossProb < 0 || p.Net.LossProb >= 1:
		return errParam("Net.LossProb must be in [0,1)")
	case p.AttribTolerance < 0:
		return errParam("AttribTolerance must be non-negative")
	}
	return nil
}

type paramError string

func (e paramError) Error() string { return "node: invalid params: " + string(e) }

func errParam(msg string) error { return paramError(msg) }
