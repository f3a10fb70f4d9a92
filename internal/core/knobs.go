package core

import (
	"encoding/json"
	"fmt"
	"maps"
	"strings"
)

// KnobKind is the value type of a knob: how its command-line flag
// parses and how a flag value becomes a JSON value.
type KnobKind int

// Knob value kinds.
const (
	KnobInt KnobKind = iota
	KnobFloat
	KnobBool
	KnobString
	KnobDuration // a string in Go duration syntax ("250ms")
)

func (k KnobKind) String() string {
	return [...]string{"an integer", "a number", "true/false", "a string", "a duration string"}[k]
}

// A Knob is one configuration dimension that gemsim flags and sweep
// axes set. Setting a knob only writes ConfigFile fields: names,
// durations and ranges are parsed and checked by ToConfig and the
// Config validation, the same way for flags, axes and JSON files.
type Knob struct {
	// Axes are the sweep axis names, canonical name first, matched
	// case-insensitively; empty when the knob is not sweepable.
	Axes []string
	// Flag is the gemsim flag name, empty when there is none.
	Flag  string
	Usage string
	Kind  KnobKind
	// Label renders the run label of the knob's value in a file it was
	// set on (run keys, and thus derived seeds, are built from labels).
	Label func(f *ConfigFile) string
	set   func(f *ConfigFile, raw json.RawMessage) error
}

// Set decodes a JSON value and assigns it to the knob's fields of f.
func (k Knob) Set(f *ConfigFile, raw json.RawMessage) error {
	if strings.TrimSpace(string(raw)) == "null" || k.set(f, raw) != nil {
		return fmt.Errorf("want %v, got %s", k.Kind, raw)
	}
	return nil
}

// SetString assigns a command-line value (string kinds are taken
// verbatim, the others must be JSON literals).
func (k Knob) SetString(f *ConfigFile, s string) error {
	raw := json.RawMessage(s)
	if k.Kind == KnobString || k.Kind == KnobDuration {
		raw, _ = json.Marshal(s)
	}
	return k.Set(f, raw)
}

// Knobs returns the knob table: the union of gemsim's configuration
// flags and the sweep axes. Axis "medium.<FILE>" (see AxisKnob) covers
// every file; the table lists the BRANCH/TELLER instance behind
// gemsim's -bt-medium.
func Knobs() []Knob { return knobs }

var knobs = []Knob{
	{Axes: []string{"nodes"}, Flag: "nodes", Kind: KnobInt,
		Usage: "number of processing nodes",
		Label: func(f *ConfigFile) string { return fmt.Sprintf("n=%d", f.Nodes) },
		set:   field(func(f *ConfigFile) *int { return &f.Nodes })},
	{Axes: []string{"rate", "arrivalRatePerNode"}, Flag: "rate", Kind: KnobFloat,
		Usage: "arrival rate per node in TPS (default 100, 50 for traces)",
		Label: func(f *ConfigFile) string { return fmt.Sprintf("rate=%g", f.ArrivalRatePerNode) },
		set:   field(func(f *ConfigFile) *float64 { return &f.ArrivalRatePerNode })},
	{Axes: []string{"coupling"}, Flag: "coupling", Kind: KnobString,
		Usage: "coupling mode: gem (close, default), pcl (loose) or le (lock engine)",
		Label: func(f *ConfigFile) string { return f.Coupling },
		set:   field(func(f *ConfigFile) *string { return &f.Coupling })},
	{Axes: []string{"cc", "engine"}, Flag: "cc", Kind: KnobString,
		Usage: "concurrency-control engine: 2pl (default), mvto, occ or had",
		Label: func(f *ConfigFile) string { return "cc=" + strings.ToLower(f.CC) },
		set:   field(func(f *ConfigFile) *string { return &f.CC })},
	{Axes: []string{"force"}, Flag: "force", Kind: KnobBool,
		Usage: "use the FORCE update strategy (default NOFORCE)",
		Label: func(f *ConfigFile) string { return pick(f.Force, "FORCE", "NOFORCE") },
		set:   field(func(f *ConfigFile) *bool { return &f.Force })},
	{Axes: []string{"routing"}, Flag: "routing", Kind: KnobString,
		Usage: "workload allocation: random, affinity (default) or loadaware",
		Label: func(f *ConfigFile) string { return f.Routing },
		set:   field(func(f *ConfigFile) *string { return &f.Routing })},
	{Axes: []string{"bufferPages", "buffer"}, Flag: "buffer", Kind: KnobInt,
		Usage: "database buffer pages per node (default 200, 1000 for traces)",
		Label: func(f *ConfigFile) string { return fmt.Sprintf("buf=%d", f.BufferPages) },
		set:   field(func(f *ConfigFile) *int { return &f.BufferPages })},
	{Axes: []string{"mpl"}, Flag: "mpl", Kind: KnobInt,
		Usage: "multiprogramming level per node (default 64, 256 for traces)",
		Label: func(f *ConfigFile) string { return fmt.Sprintf("mpl=%d", *f.MPL) },
		set:   field(func(f *ConfigFile) **int { return &f.MPL })},
	mediumKnob("BRANCH/TELLER", "bt-medium"),
	{Axes: []string{"logInGEM", "logGEM"}, Flag: "log-gem", Kind: KnobBool,
		Usage: "allocate log files to GEM",
		Label: func(f *ConfigFile) string { return fmt.Sprintf("logGEM=%v", f.LogInGEM) },
		set:   field(func(f *ConfigFile) *bool { return &f.LogInGEM })},
	{Flag: "log-merge", Kind: KnobBool,
		Usage: "run the global log merge process (needs -log-gem)",
		set:   field(func(f *ConfigFile) *bool { return &f.GlobalLogMerge })},
	{Axes: []string{"gemMessaging"}, Flag: "gem-messaging", Kind: KnobBool,
		Usage: "exchange all messages across GEM",
		Label: func(f *ConfigFile) string { return fmt.Sprintf("gemMsg=%v", f.GEMMessaging) },
		set:   field(func(f *ConfigFile) *bool { return &f.GEMMessaging })},
	{Axes: []string{"skew", "branchTheta"}, Flag: "skew", Kind: KnobFloat,
		Usage: "branch Zipf skew theta in [0,1) (debit-credit only; 0 = uniform)",
		Label: func(f *ConfigFile) string {
			if f.Skew == nil {
				return "uniform"
			}
			return fmt.Sprintf("skew=%g", f.Skew.BranchTheta)
		},
		set: skewField(func(sk *SkewFile, v float64) { sk.BranchTheta = v })},
	{Flag: "account-skew", Kind: KnobFloat,
		Usage: "account Zipf skew theta in [0,1) within the chosen branch",
		set:   skewField(func(sk *SkewFile, v float64) { sk.AccountTheta = v })},
	{Axes: []string{"drift"}, Kind: KnobBool,
		Usage: "canonical mid-run hot-spot drift: rotate the branch ranking by a quarter at 8s and 16s",
		Label: func(f *ConfigFile) string { return pick(f.Skew != nil && len(f.Skew.Drift) > 0, "drift", "steady") },
		set: skewField(func(sk *SkewFile, on bool) {
			sk.Drift = nil
			if on {
				sk.Drift = []DriftFile{{At: "8s", Rotate: 0.25}, {At: "16s", Rotate: 0.25}}
			}
		})},
	{Axes: []string{"control", "adaptive"}, Flag: "adaptive", Kind: KnobBool,
		Usage: "enable the closed-loop load controller (feedback admission and re-routing)",
		Label: func(f *ConfigFile) string { return pick(f.Control != nil, "adaptive", "static") },
		set: func(f *ConfigFile, raw json.RawMessage) error {
			var on bool
			if err := json.Unmarshal(raw, &on); err != nil {
				return err
			}
			if on {
				own(&f.Control)
			} else {
				f.Control = nil
			}
			return nil
		}},
	{Axes: []string{"terminals", "closedLoopTerminals"}, Flag: "terminals", Kind: KnobInt,
		Usage: "closed-loop mode: terminals per node (0 = open model)",
		Label: func(f *ConfigFile) string { return fmt.Sprintf("terms=%d", f.ClosedLoopTerminals) },
		set:   field(func(f *ConfigFile) *int { return &f.ClosedLoopTerminals })},
	{Axes: []string{"think", "thinkTime", "closedLoopThinkTime"}, Flag: "think", Kind: KnobDuration,
		Usage: "closed-loop mean think time (default 1s)",
		Label: func(f *ConfigFile) string { return "think=" + f.ClosedLoopThinkTime },
		set:   field(func(f *ConfigFile) *string { return &f.ClosedLoopThinkTime })},
	{Axes: []string{"mtbf"}, Flag: "mtbf", Kind: KnobDuration,
		Usage: "mean time between node crashes (stochastic fault injection; set with -mttr)",
		Label: func(f *ConfigFile) string { return "mtbf=" + f.Faults.MTBF },
		set:   field(func(f *ConfigFile) *string { return &own(&f.Faults).MTBF })},
	{Axes: []string{"mttr"}, Flag: "mttr", Kind: KnobDuration,
		Usage: "mean time to repair a crashed node (set with -mtbf)",
		Label: func(f *ConfigFile) string { return "mttr=" + f.Faults.MTTR },
		set:   field(func(f *ConfigFile) *string { return &own(&f.Faults).MTTR })},
	{Axes: []string{"reopen"}, Flag: "reopen", Kind: KnobString,
		Usage: "post-crash reopen policy: offline (REDO completes first) or incremental (admit during replay)",
		Label: func(f *ConfigFile) string { return "reopen=" + f.Faults.Reopen },
		set:   field(func(f *ConfigFile) *string { return &own(&f.Faults).Reopen })},
	{Axes: []string{"recoveryWorkers"}, Flag: "recovery-workers", Kind: KnobInt,
		Usage: "REDO replay workers, the recovery coordinator included (0 or 1 = coordinator alone)",
		Label: func(f *ConfigFile) string { return fmt.Sprintf("workers=%d", f.Faults.RecoveryWorkers) },
		set:   field(func(f *ConfigFile) *int { return &own(&f.Faults).RecoveryWorkers })},
	{Flag: "trace", Kind: KnobString,
		Usage: "trace file for trace-driven simulation",
		set:   field(func(f *ConfigFile) *string { return &f.TraceFile })},
	{Flag: "warmup", Kind: KnobDuration,
		Usage: "warm-up period of simulated time",
		set:   field(func(f *ConfigFile) *string { return &f.Warmup })},
	{Flag: "measure", Kind: KnobDuration,
		Usage: "measurement period of simulated time",
		set:   field(func(f *ConfigFile) *string { return &f.Measure })},
	{Flag: "seed", Kind: KnobInt,
		Usage: "random seed (default 1)",
		set:   field(func(f *ConfigFile) *int64 { return &f.Seed })},
	{Flag: "check", Kind: KnobBool,
		Usage: "enable the coherency invariant oracle",
		set:   field(func(f *ConfigFile) *bool { return &f.CheckInvariants })},
	{Flag: "attrib-off", Kind: KnobBool,
		Usage: "disable bottleneck attribution accounting",
		set:   field(func(f *ConfigFile) *bool { return &own(&f.Attribution).Off })},
}

// mediumKnob is the storage medium of one file.
func mediumKnob(file, flag string) Knob {
	return Knob{
		Axes: []string{"medium." + file}, Flag: flag, Kind: KnobString,
		Usage: file + " medium: disk, vcache, nvcache, gem, gemwb or gemcache",
		Label: func(f *ConfigFile) string { return file + "=" + f.FileMedium[file] },
		set: func(f *ConfigFile, raw json.RawMessage) error {
			var m string
			if err := json.Unmarshal(raw, &m); err != nil {
				return err
			}
			fm := maps.Clone(f.FileMedium)
			if fm == nil {
				fm = make(map[string]string, 1)
			}
			fm[file] = m
			f.FileMedium = fm
			return nil
		},
	}
}

// AxisKnob resolves a sweep axis name (case-insensitive, aliases
// included; "medium.<FILE>" for any file).
func AxisKnob(name string) (Knob, bool) {
	if file, ok := strings.CutPrefix(name, "medium."); ok {
		return mediumKnob(file, ""), true
	}
	for _, k := range knobs {
		for _, a := range k.Axes {
			if strings.EqualFold(a, name) {
				return k, true
			}
		}
	}
	return Knob{}, false
}

// AxisNames lists the canonical sweep axis names in table order.
func AxisNames() []string {
	var names []string
	for _, k := range knobs {
		if len(k.Axes) > 0 && !strings.HasPrefix(k.Axes[0], "medium.") {
			names = append(names, k.Axes[0])
		}
	}
	return append(names, "medium.<FILE>")
}

// field decodes a value into the ConfigFile field p returns. The
// pointer is taken after a successful decode, so nested blocks are
// only copied for values that are assigned.
func field[T any](p func(*ConfigFile) *T) func(*ConfigFile, json.RawMessage) error {
	return func(f *ConfigFile, raw json.RawMessage) error {
		var v T
		if err := json.Unmarshal(raw, &v); err != nil {
			return err
		}
		*p(f) = v
		return nil
	}
}

// skewField decodes a value and assigns it to a copy of the skew
// block. A block left without skew, hot set or drift is dropped, so a
// zero skew is the uniform workload.
func skewField[T any](assign func(*SkewFile, T)) func(*ConfigFile, json.RawMessage) error {
	return func(f *ConfigFile, raw json.RawMessage) error {
		var v T
		if err := json.Unmarshal(raw, &v); err != nil {
			return err
		}
		sk := own(&f.Skew)
		assign(sk, v)
		if sk.BranchTheta == 0 && sk.AccountTheta == 0 && sk.HotFraction == 0 && len(sk.Drift) == 0 {
			f.Skew = nil
		}
		return nil
	}
}

// own replaces the block *p with a copy (a zero block when nil) and
// returns it, so files sharing the block (sweep points of one base)
// stay independent.
func own[T any](p **T) *T {
	v := new(T)
	if *p != nil {
		*v = **p
	}
	*p = v
	return v
}

func pick(cond bool, yes, no string) string {
	if cond {
		return yes
	}
	return no
}
