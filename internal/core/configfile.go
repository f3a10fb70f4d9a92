package core

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"gemsim/internal/cc"
	"gemsim/internal/fault"
	"gemsim/internal/model"
	"gemsim/internal/node"
	"gemsim/internal/recovery"
	"gemsim/internal/workload"
)

// ConfigFile is the JSON representation of a Config, for driving the
// simulator from declarative experiment files. All durations are
// strings in Go syntax ("16s", "250ms"); enums are lower-case names.
type ConfigFile struct {
	Nodes              int     `json:"nodes"`
	ArrivalRatePerNode float64 `json:"arrivalRatePerNode,omitempty"`
	Coupling           string  `json:"coupling"` // "gem", "pcl", "lockengine"
	Force              bool    `json:"force,omitempty"`
	Routing            string  `json:"routing"` // "random", "affinity"
	// CC selects the concurrency-control engine: "2pl" (default),
	// "mvto", "occ", "had".
	CC          string `json:"cc,omitempty"`
	BufferPages int    `json:"bufferPages,omitempty"`
	// MPL, when present, must be positive; leave it out for the
	// workload default.
	MPL *int `json:"mpl,omitempty"`

	// TraceFile switches to trace-driven simulation.
	TraceFile string `json:"traceFile,omitempty"`

	// Skew shapes the debit-credit reference distribution (Zipf
	// branches/accounts, hot set, drift schedule). Incompatible with
	// TraceFile.
	Skew *SkewFile `json:"skew,omitempty"`

	// Control enables the adaptive load controller.
	Control *ControlFile `json:"control,omitempty"`

	// FileMedium maps file names to media: "disk", "vcache",
	// "nvcache", "gem", "gemwb".
	FileMedium     map[string]string `json:"fileMedium,omitempty"`
	DiskCachePages map[string]int    `json:"diskCachePages,omitempty"`
	LogInGEM       bool              `json:"logInGEM,omitempty"`
	GlobalLogMerge bool              `json:"globalLogMerge,omitempty"`
	GEMMessaging   bool              `json:"gemMessaging,omitempty"`

	ClosedLoopTerminals int    `json:"closedLoopTerminals,omitempty"`
	ClosedLoopThinkTime string `json:"closedLoopThinkTime,omitempty"`

	Warmup  string `json:"warmup,omitempty"`
	Measure string `json:"measure,omitempty"`

	Seed            int64 `json:"seed,omitempty"`
	CheckInvariants bool  `json:"checkInvariants,omitempty"`

	// Faults enables fault injection (see FaultConfig).
	Faults *FaultsFile `json:"faults,omitempty"`

	// Attribution tunes the bottleneck attribution engine (on by
	// default; see AttributionConfig).
	Attribution *AttributionFile `json:"attribution,omitempty"`
}

// AttributionFile is the JSON representation of an AttributionConfig.
type AttributionFile struct {
	Off       bool    `json:"off,omitempty"`
	Tolerance float64 `json:"tolerance,omitempty"`
}

// FaultsFile is the JSON representation of a FaultConfig.
type FaultsFile struct {
	Crashes            []CrashFile `json:"crashes,omitempty"`
	MTBF               string      `json:"mtbf,omitempty"`
	MTTR               string      `json:"mttr,omitempty"`
	MessageLossProb    float64     `json:"messageLossProb,omitempty"`
	DiskStalls         []StallFile `json:"diskStalls,omitempty"`
	LockWaitTimeout    string      `json:"lockWaitTimeout,omitempty"`
	CheckpointInterval string      `json:"checkpointInterval,omitempty"`
	DetectDelay        string      `json:"detectDelay,omitempty"`
	// Reopen is "offline" (default) or "incremental".
	Reopen string `json:"reopen,omitempty"`
	// RecoveryWorkers is the replay width, coordinator included (0/1 =
	// the coordinator alone).
	RecoveryWorkers int `json:"recoveryWorkers,omitempty"`
	// AvailabilityWindow is the availability sampling window.
	AvailabilityWindow string `json:"availabilityWindow,omitempty"`
}

// SkewFile is the JSON representation of a workload.Skew.
type SkewFile struct {
	BranchTheta  float64     `json:"branchTheta,omitempty"`
	AccountTheta float64     `json:"accountTheta,omitempty"`
	HotFraction  float64     `json:"hotFraction,omitempty"`
	HotProb      float64     `json:"hotProb,omitempty"`
	Drift        []DriftFile `json:"drift,omitempty"`
}

// DriftFile is one drift schedule step: from time At on, the branch
// popularity ranking is rotated by the given fraction of the branch
// count (cumulative across steps).
type DriftFile struct {
	At     string  `json:"at"`
	Rotate float64 `json:"rotate"`
}

// ControlFile is the JSON representation of a node.ControlConfig. A
// field the file sets reaches ControlConfig.Validate as written, zero
// included; absent fields keep the DefaultControlConfig tuning
// (admission and reroute enabled).
type ControlFile struct {
	Admission            *bool    `json:"admission,omitempty"`
	Reroute              *bool    `json:"reroute,omitempty"`
	Interval             string   `json:"interval,omitempty"`
	MinMPL               *int     `json:"minMPL,omitempty"`
	HighConflict         *float64 `json:"highConflict,omitempty"`
	LowConflict          *float64 `json:"lowConflict,omitempty"`
	Backoff              *float64 `json:"backoff,omitempty"`
	ProbeStep            *int     `json:"probeStep,omitempty"`
	Cooldown             *int     `json:"cooldown,omitempty"`
	RTFactor             *float64 `json:"rtFactor,omitempty"`
	RebalanceEvery       *int     `json:"rebalanceEvery,omitempty"`
	Imbalance            *float64 `json:"imbalance,omitempty"`
	MaxMoves             *int     `json:"maxMoves,omitempty"`
	MigrateShare         *float64 `json:"migrateShare,omitempty"`
	MigrateMinLocks      *float64 `json:"migrateMinLocks,omitempty"`
	HandoffEntriesPerMsg *int     `json:"handoffEntriesPerMsg,omitempty"`
}

// CrashFile schedules one node crash.
type CrashFile struct {
	Node   int    `json:"node"`
	At     string `json:"at"`
	Repair string `json:"repair"`
}

// StallFile freezes one disk group (file name, or "logN" for node N's
// log disks).
type StallFile struct {
	File     string `json:"file"`
	At       string `json:"at"`
	Duration string `json:"duration"`
}

// ParseMedium converts a medium name to its model constant.
func ParseMedium(s string) (model.Medium, error) {
	switch strings.ToLower(s) {
	case "disk":
		return model.MediumDisk, nil
	case "vcache":
		return model.MediumDiskCacheVolatile, nil
	case "nvcache":
		return model.MediumDiskCacheNV, nil
	case "gem":
		return model.MediumGEM, nil
	case "gemwb":
		return model.MediumGEMWriteBuffer, nil
	case "gemcache":
		return model.MediumGEMCache, nil
	default:
		return 0, fmt.Errorf("core: unknown medium %q (want disk, vcache, nvcache, gem, gemwb or gemcache)", s)
	}
}

// ParseCoupling converts a coupling name to its constant.
func ParseCoupling(s string) (Coupling, error) {
	switch strings.ToLower(s) {
	case "gem":
		return CouplingGEM, nil
	case "pcl":
		return CouplingPCL, nil
	case "le", "lockengine":
		return CouplingLockEngine, nil
	default:
		return 0, fmt.Errorf("core: unknown coupling %q (want gem, pcl or lockengine)", s)
	}
}

// ParseRouting converts a routing name to its constant.
func ParseRouting(s string) (Routing, error) {
	switch strings.ToLower(s) {
	case "random":
		return RoutingRandom, nil
	case "affinity":
		return RoutingAffinity, nil
	case "loadaware":
		return RoutingLoadAware, nil
	default:
		return 0, fmt.Errorf("core: unknown routing %q (want random, affinity or loadaware)", s)
	}
}

// ToConfig materializes the file into a Config, parsing names and
// durations and rejecting values no configuration can use. Zero
// values select the defaults (one node, the workload's rate, buffer
// and MPL, the open model). Trace files are loaded from disk. The
// remaining consistency checks run when the Config runs.
func (f *ConfigFile) ToConfig() (Config, error) {
	nodes := f.Nodes
	if nodes == 0 {
		nodes = 1
	}
	cfg := DefaultDebitCreditConfig(nodes)
	if f.TraceFile != "" {
		trace, err := workload.ReadTraceFile(f.TraceFile)
		if err != nil {
			return Config{}, err
		}
		cfg = DefaultTraceConfig(nodes, trace)
	}
	if f.ArrivalRatePerNode != 0 {
		cfg.ArrivalRatePerNode = f.ArrivalRatePerNode
	}
	if f.Coupling != "" {
		c, err := ParseCoupling(f.Coupling)
		if err != nil {
			return Config{}, err
		}
		cfg.Coupling = c
	}
	if f.Routing != "" {
		r, err := ParseRouting(f.Routing)
		if err != nil {
			return Config{}, err
		}
		cfg.Routing = r
	}
	if f.CC != "" {
		k, err := cc.Parse(strings.ToLower(f.CC))
		if err != nil {
			return Config{}, fmt.Errorf("core: %w", err)
		}
		cfg.CC = k
	}
	cfg.Force = f.Force
	if f.BufferPages != 0 {
		cfg.BufferPages = f.BufferPages
	}
	if f.MPL != nil {
		if *f.MPL <= 0 {
			return Config{}, fmt.Errorf("core: mpl must be positive, got %d (leave it out for the workload default)", *f.MPL)
		}
		cfg.MPL = *f.MPL
	}
	if len(f.FileMedium) > 0 {
		cfg.FileMedium = make(map[string]model.Medium, len(f.FileMedium))
		for name, ms := range f.FileMedium {
			m, err := ParseMedium(ms)
			if err != nil {
				return Config{}, err
			}
			cfg.FileMedium[name] = m
		}
	}
	if len(f.DiskCachePages) > 0 {
		cfg.DiskCachePages = f.DiskCachePages
	}
	cfg.LogInGEM = f.LogInGEM
	cfg.GlobalLogMerge = f.GlobalLogMerge
	cfg.GEMMessaging = f.GEMMessaging
	switch {
	case f.ClosedLoopTerminals < 0:
		return Config{}, fmt.Errorf("core: closedLoopTerminals must be non-negative, got %d (0 = open model)", f.ClosedLoopTerminals)
	case f.ClosedLoopThinkTime != "" && f.ClosedLoopTerminals == 0:
		return Config{}, fmt.Errorf("core: closedLoopThinkTime needs closedLoopTerminals (the open model has no terminals to think)")
	case f.ClosedLoopTerminals > 0:
		think := time.Second
		if f.ClosedLoopThinkTime != "" {
			var err error
			think, err = time.ParseDuration(f.ClosedLoopThinkTime)
			if err != nil {
				return Config{}, fmt.Errorf("core: closedLoopThinkTime: %w", err)
			}
		}
		cfg.ClosedLoop = &ClosedLoopConfig{
			TerminalsPerNode: f.ClosedLoopTerminals,
			ThinkTime:        think,
		}
	}
	if f.Warmup != "" {
		d, err := time.ParseDuration(f.Warmup)
		if err != nil {
			return Config{}, fmt.Errorf("core: warmup: %w", err)
		}
		cfg.Warmup = d
	}
	if f.Measure != "" {
		d, err := time.ParseDuration(f.Measure)
		if err != nil {
			return Config{}, fmt.Errorf("core: measure: %w", err)
		}
		cfg.Measure = d
	}
	if f.Seed != 0 {
		cfg.Seed = f.Seed
	}
	cfg.CheckInvariants = f.CheckInvariants
	if f.Skew != nil {
		if f.TraceFile != "" {
			return Config{}, fmt.Errorf("core: skew applies to the debit-credit workload, not to traces")
		}
		sk, err := f.Skew.toSkew()
		if err != nil {
			return Config{}, err
		}
		p := workload.DefaultDebitCreditParams(cfg.ArrivalRatePerNode * float64(cfg.Nodes))
		p.Skew = sk
		cfg.Workload.DebitCredit = &p
	}
	if f.Control != nil {
		ctl, err := f.Control.toControlConfig()
		if err != nil {
			return Config{}, err
		}
		cfg.Control = ctl
	}
	if f.Faults != nil {
		fc, err := f.Faults.toFaultConfig()
		if err != nil {
			return Config{}, err
		}
		cfg.Faults = fc
	}
	if f.Attribution != nil {
		cfg.Attribution = AttributionConfig{
			Off:       f.Attribution.Off,
			Tolerance: f.Attribution.Tolerance,
		}
	}
	return cfg, nil
}

func (f *SkewFile) toSkew() (*workload.Skew, error) {
	sk := &workload.Skew{
		BranchTheta:  f.BranchTheta,
		AccountTheta: f.AccountTheta,
		HotFraction:  f.HotFraction,
		HotProb:      f.HotProb,
	}
	for i, d := range f.Drift {
		at, err := parseOptDuration(fmt.Sprintf("skew.drift[%d].at", i), d.At)
		if err != nil {
			return nil, err
		}
		sk.Drift = append(sk.Drift, workload.DriftStep{At: at, Rotate: d.Rotate})
	}
	if err := sk.Validate(); err != nil {
		return nil, err
	}
	return sk, nil
}

func (f *ControlFile) toControlConfig() (*node.ControlConfig, error) {
	ctl := node.DefaultControlConfig()
	if f.Interval != "" {
		d, err := parseOptDuration("control.interval", f.Interval)
		if err != nil {
			return nil, err
		}
		ctl.Interval = d
	}
	setIfGiven(&ctl.Admission, f.Admission)
	setIfGiven(&ctl.Reroute, f.Reroute)
	setIfGiven(&ctl.MinMPL, f.MinMPL)
	setIfGiven(&ctl.HighConflict, f.HighConflict)
	setIfGiven(&ctl.LowConflict, f.LowConflict)
	setIfGiven(&ctl.Backoff, f.Backoff)
	setIfGiven(&ctl.ProbeStep, f.ProbeStep)
	setIfGiven(&ctl.Cooldown, f.Cooldown)
	setIfGiven(&ctl.RTFactor, f.RTFactor)
	setIfGiven(&ctl.RebalanceEvery, f.RebalanceEvery)
	setIfGiven(&ctl.Imbalance, f.Imbalance)
	setIfGiven(&ctl.MaxMoves, f.MaxMoves)
	setIfGiven(&ctl.MigrateShare, f.MigrateShare)
	setIfGiven(&ctl.MigrateMinLocks, f.MigrateMinLocks)
	setIfGiven(&ctl.HandoffEntriesPerMsg, f.HandoffEntriesPerMsg)
	if err := ctl.Validate(); err != nil {
		return nil, err
	}
	return ctl, nil
}

// setIfGiven copies a value the file set over the default in *dst.
func setIfGiven[T any](dst, v *T) {
	if v != nil {
		*dst = *v
	}
}

func (f *FaultsFile) toFaultConfig() (*FaultConfig, error) {
	fc := &FaultConfig{MessageLossProb: f.MessageLossProb}
	for i, c := range f.Crashes {
		at, err := parseOptDuration(fmt.Sprintf("faults.crashes[%d].at", i), c.At)
		if err != nil {
			return nil, err
		}
		repair, err := parseOptDuration(fmt.Sprintf("faults.crashes[%d].repair", i), c.Repair)
		if err != nil {
			return nil, err
		}
		fc.Crashes = append(fc.Crashes, fault.NodeCrash{Node: c.Node, At: at, Repair: repair})
	}
	for i, s := range f.DiskStalls {
		at, err := parseOptDuration(fmt.Sprintf("faults.diskStalls[%d].at", i), s.At)
		if err != nil {
			return nil, err
		}
		dur, err := parseOptDuration(fmt.Sprintf("faults.diskStalls[%d].duration", i), s.Duration)
		if err != nil {
			return nil, err
		}
		fc.DiskStalls = append(fc.DiskStalls, fault.DiskStall{File: s.File, At: at, Duration: dur})
	}
	var err error
	if fc.MTBF, err = parseOptDuration("faults.mtbf", f.MTBF); err != nil {
		return nil, err
	}
	if fc.MTTR, err = parseOptDuration("faults.mttr", f.MTTR); err != nil {
		return nil, err
	}
	if fc.LockWaitTimeout, err = parseOptDuration("faults.lockWaitTimeout", f.LockWaitTimeout); err != nil {
		return nil, err
	}
	if fc.CheckpointInterval, err = parseOptDuration("faults.checkpointInterval", f.CheckpointInterval); err != nil {
		return nil, err
	}
	if fc.DetectDelay, err = parseOptDuration("faults.detectDelay", f.DetectDelay); err != nil {
		return nil, err
	}
	if fc.Reopen, err = recovery.ParseReopenPolicy(f.Reopen); err != nil {
		return nil, fmt.Errorf("core: faults.reopen: %w", err)
	}
	fc.RecoveryWorkers = f.RecoveryWorkers
	if fc.AvailabilityWindow, err = parseOptDuration("faults.availabilityWindow", f.AvailabilityWindow); err != nil {
		return nil, err
	}
	// Invalid fault blocks are rejected here, before a run is assembled.
	if err := fc.validate(); err != nil {
		return nil, err
	}
	return fc, nil
}

func parseOptDuration(name, s string) (time.Duration, error) {
	if s == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("core: %s: %w", name, err)
	}
	return d, nil
}

// ReadConfigFile decodes a JSON configuration file.
func ReadConfigFile(path string) (ConfigFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return ConfigFile{}, err
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var f ConfigFile
	if err := dec.Decode(&f); err != nil {
		return ConfigFile{}, fmt.Errorf("core: parse %s: %w", path, err)
	}
	return f, nil
}

// LoadConfigFile reads a JSON configuration from path and checks that
// it can run.
func LoadConfigFile(path string) (Config, error) {
	f, err := ReadConfigFile(path)
	if err != nil {
		return Config{}, err
	}
	cfg, err := f.ToConfig()
	if err != nil {
		return Config{}, err
	}
	return cfg, cfg.validate()
}
