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
	"fmt"
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

// ModelKnobs are the model settings core.Config and Params share. Both
// embed this struct, so each knob is declared here once and core
// derives Params by copying it whole.
type ModelKnobs struct {
	// Coupling selects GEM locking, primary copy locking or the lock
	// engine baseline.
	Coupling Coupling
	// Force selects the FORCE update strategy (write all modified
	// pages at commit); otherwise NOFORCE.
	Force bool
	// CC selects the concurrency-control engine: cc.KindDefault (the
	// coupling mode's native two-phase locking protocol), cc.KindMVTO
	// (multiversion timestamp ordering), cc.KindOCC (backward-validation
	// optimistic), or cc.KindHAD (hot/cold hybrid: the workload's
	// hot-spot pages through locking, the cold tail through OCC).
	CC cc.Kind
	// BufferPages is the main memory database buffer size per node
	// (200 or 1000 in the paper).
	BufferPages int
	// LogInGEM allocates the log files to GEM instead of log disks.
	LogInGEM bool
	// GEMMessaging exchanges all messages across GEM instead of the
	// interconnection network (the "general application" of GEM in
	// section 2 of the paper).
	GEMMessaging bool
	// GlobalLogMerge runs a background merge process (at node 0) that
	// builds a global log from the GEM-resident local logs, one of the
	// GEM usage forms of section 2 ("to efficiently construct a global
	// log by merging local log data"). Requires LogInGEM.
	GlobalLogMerge bool
	// Seed drives all stochastic model components.
	Seed int64
	// CheckInvariants enables the coherency oracle: every page access
	// is validated against a global view of committed versions.
	CheckInvariants bool
	// Attribution tunes the bottleneck attribution engine; the zero
	// value keeps it on with default settings.
	Attribution AttributionConfig

	// LockInstr is the local lock/unlock handling cost per request
	// (0 in Table 4.1; the engines preset models a heavyweight lock
	// manager with 40000).
	LockInstr float64
	// InstantWakeup makes GEM lock wakeups free instead of sending a
	// short message to the waiting node (ablation switch).
	InstantWakeup bool
	// GEMPageTransfer routes NOFORCE page exchanges between nodes
	// through GEM (two page accesses) instead of the communication
	// system (extension discussed in the paper's conclusions).
	GEMPageTransfer bool
}

// AttributionConfig tunes the bottleneck attribution engine (package
// attrib): per-transaction critical-path accounting, per-station
// operational-law self-validation, and lock wait-for snapshots on the
// event trace. The zero value is the default: attribution ON.
// Attribution is pure accounting — it schedules
// no events and draws no random numbers — so enabling it never changes
// any simulated result, and its per-commit cost is a handful of
// additions.
type AttributionConfig struct {
	// Off disables all attribution accounting (benchmark ablations).
	Off bool
}

// RecoveryKnobs are the recovery settings core.FaultConfig and Params
// share. They take effect only once faults are armed (ArmFaults), which
// fills every one left zero with its default.
type RecoveryKnobs struct {
	// LockWaitTimeout aborts (and retries) a transaction whose lock
	// wait or remote reply wait exceeds it; this is what lets the
	// system degrade instead of hanging when a lock holder dies or a
	// grant message is lost. Default 2s.
	LockWaitTimeout time.Duration
	// CheckpointInterval is the fuzzy checkpoint period per node; the
	// redo log scan after a crash covers the log written since the last
	// checkpoint. Default 10s.
	CheckpointInterval time.Duration
	// DetectDelay is the failure detection latency between a crash and
	// the start of recovery on the survivors. Default 50ms.
	DetectDelay time.Duration
	// Reopen selects when transactions are readmitted after a crash:
	// recovery.ReopenOffline (default) holds new work on the fences
	// until the whole REDO backlog is replayed;
	// recovery.ReopenIncremental reopens as soon as the lock state is
	// recovered and repairs unredone pages on first touch.
	Reopen recovery.ReopenPolicy
	// RecoveryWorkers is the number of replay workers; the REDO
	// backlog is partitioned by GLA partition across them
	// (longest-backlog-first). The recovery coordinator is worker 0,
	// so 0 or 1 means it replays alone.
	RecoveryWorkers int
	// AvailabilityWindow is the sampling window of the availability
	// tracker measuring time-to-full-throughput, per-window
	// unavailability and SLO attainment. Default 250ms.
	AvailabilityWindow time.Duration
}

// Params configures the processing node complex (Table 4.1 defaults are
// provided by DefaultParams).
type Params struct {
	ModelKnobs

	// Nodes is the number of processing nodes.
	Nodes int
	// CPUsPerNode and MIPSPerCPU describe the CPU complex (4 x 10
	// MIPS).
	CPUsPerNode int
	MIPSPerCPU  float64
	// MPL is the multiprogramming level per node (paper: high enough
	// to avoid input queueing).
	MPL int
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

	// RestartDelayMean is the mean back-off before restarting a
	// deadlock victim.
	RestartDelayMean time.Duration

	// GEM and Net are the device parameters.
	GEM gem.Params
	Net netsim.Params
	// LockEngine configures the [Yu87] baseline used with
	// CouplingLockEngine.
	LockEngine LockEngineParams

	// LogMergeInterval is the GlobalLogMerge process wake-up interval.
	LogMergeInterval time.Duration
	// LogMergeInstr is the CPU cost of merging one log page.
	LogMergeInstr float64
	// GEMMsgShortInstr/GEMMsgLongInstr are the per-operation CPU
	// overheads of the storage-based GEMMessaging protocol.
	GEMMsgShortInstr float64
	GEMMsgLongInstr  float64

	// DisksPerFile sizes every file's disk group so that no I/O
	// bottleneck occurs (the paper allocates "a sufficient number of
	// disks"); the default is six per node.
	DisksPerFile int
	// DiskCachePages sizes the shared disk cache of files allocated
	// to a cached medium.
	DiskCachePages map[model.FileID]int

	// FaultsEnabled arms the failure machinery: lock-wait timeouts,
	// down-node routing, checkpointing and crash recovery. With it off
	// (the default) none of the fault paths is ever taken and fault-free
	// runs are bit-identical to earlier versions. ArmFaults sets it
	// together with the recovery defaults.
	FaultsEnabled bool
	// RecoveryKnobs are read only with FaultsEnabled.
	RecoveryKnobs
	// RetryBackoffCap bounds the exponential back-off applied to
	// timeout and conflict retries (the back-off doubles per
	// consecutive retry, starting from RestartDelayMean); 0 leaves it
	// unbounded.
	RetryBackoffCap time.Duration
	// RecoveryApplyInstr is the CPU demand of applying the log records
	// of one redone page (5000 instr = 0.5 ms at 10 MIPS, matching
	// recovery.Params.RedoApplyPerPage).
	RecoveryApplyInstr float64
	// RecoveryEntryInstr is the CPU demand per lock entry read or
	// re-registered during lock state recovery, and per entry moved by
	// a GLA partition migration.
	RecoveryEntryInstr float64
}

// DefaultParams returns the Table 4.1 settings for the given node
// count. The 250,000 instruction path length is split as 30,000 at BOT,
// 50,000 per record access (four accesses) and 20,000 at EOT.
func DefaultParams(nodes int) Params {
	return Params{
		ModelKnobs: ModelKnobs{
			Coupling:    CouplingGEM,
			BufferPages: 200,
			Seed:        1,
		},
		Nodes:            nodes,
		CPUsPerNode:      4,
		MIPSPerCPU:       10,
		MPL:              64,
		BOTInstr:         30000,
		RefInstr:         50000,
		EOTInstr:         20000,
		IOInstr:          3000,
		GEMIOInstr:       300,
		RestartDelayMean: 10 * time.Millisecond,
		GEM:              gem.DefaultParams(),
		Net:              netsim.DefaultParams(),
		LockEngine:       LockEngineParams{ServiceTime: 200 * time.Microsecond},
		GEMMsgShortInstr: 1000,
		GEMMsgLongInstr:  1500,
		LogMergeInterval: 100 * time.Millisecond,
		LogMergeInstr:    1000,
		DisksPerFile:     6 * nodes,
	}
}

// ArmFaults enables the failure machinery and gives every recovery
// setting left zero its default. Fault-free runs never call it, so the
// settings fault-free code also reads (RetryBackoffCap for conflict
// back-off, RecoveryEntryInstr for GLA migration) stay zero there.
func (p *Params) ArmFaults() {
	p.FaultsEnabled = true
	orDefault(&p.LockWaitTimeout, 2*time.Second)
	orDefault(&p.CheckpointInterval, 10*time.Second)
	orDefault(&p.DetectDelay, 50*time.Millisecond)
	orDefault(&p.AvailabilityWindow, 250*time.Millisecond)
	orDefault(&p.RetryBackoffCap, 2*time.Second)
	orDefault(&p.RecoveryApplyInstr, 5000)
	orDefault(&p.RecoveryEntryInstr, 100)
}

// orDefault sets *v to def when it is zero. Negative values are kept so
// that validation rejects them.
func orDefault[T comparable](v *T, def T) {
	var zero T
	if *v == zero {
		*v = def
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
	case !cc.Valid(p.CC):
		return errParam(fmt.Sprintf("invalid CC engine %d", p.CC))
	case p.CC != cc.KindDefault && p.Coupling == CouplingLockEngine:
		return errParam("the lock engine baseline is hard-wired to its native 2PL protocol (use GEM or PCL coupling with an alternative engine)")
	case p.CC == cc.KindMVTO && p.Force:
		return errParam("MV-TO serves reads from its version store; FORCE update propagation does not apply (use NOFORCE)")
	case p.CC != cc.KindDefault && p.CheckInvariants:
		return errParam("the coherency oracle assumes two-phase locking; optimistic engines legitimately observe versions it would reject")
	case p.BOTInstr < 0 || p.RefInstr < 0 || p.EOTInstr < 0:
		return errParam("instruction demands must be non-negative")
	case p.DisksPerFile <= 0:
		return errParam("DisksPerFile must be positive")
	case p.GlobalLogMerge && !p.LogInGEM:
		return errParam("GlobalLogMerge requires LogInGEM (the merge reads the GEM-resident local logs)")
	case p.FaultsEnabled && p.Coupling == CouplingLockEngine:
		return errParam("fault injection is not supported for the lock engine baseline (its broadcast protocol has no timeout recovery)")
	case p.FaultsEnabled && p.CheckInvariants:
		return errParam("fault injection is incompatible with CheckInvariants (recovery approximations violate the oracle's strict coherency view)")
	case p.FaultsEnabled && p.AvailabilityWindow == 0:
		return errParam("AvailabilityWindow must be positive once faults are armed")
	case p.RetryBackoffCap < 0:
		return errParam("RetryBackoffCap must be non-negative")
	case p.RecoveryApplyInstr < 0 || p.RecoveryEntryInstr < 0:
		return errParam("recovery instruction demands must be non-negative")
	case p.Net.LossProb < 0 || p.Net.LossProb >= 1:
		return errParam("message loss probability (Net.LossProb) must be in [0,1)")
	}
	return p.RecoveryKnobs.ValidateRecovery()
}

// ValidateRecovery checks the recovery settings on their own.
func (r *RecoveryKnobs) ValidateRecovery() error {
	switch {
	case r.LockWaitTimeout < 0 || r.CheckpointInterval < 0 || r.DetectDelay < 0:
		return errParam("fault timing parameters must be non-negative")
	case r.Reopen != recovery.ReopenOffline && r.Reopen != recovery.ReopenIncremental:
		return errParam(fmt.Sprintf("Reopen must be offline or incremental, got %d", r.Reopen))
	case r.RecoveryWorkers < 0:
		return errParam(fmt.Sprintf("RecoveryWorkers must be non-negative, got %d", r.RecoveryWorkers))
	case r.AvailabilityWindow < 0:
		return errParam(fmt.Sprintf("AvailabilityWindow must be non-negative, got %v", r.AvailabilityWindow))
	}
	return nil
}

type paramError string

func (e paramError) Error() string { return "node: invalid params: " + string(e) }

func errParam(msg string) error { return paramError(msg) }
