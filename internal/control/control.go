// Package control holds the pure decision logic of the adaptive load
// control subsystem: feedback-driven admission (effective MPL), load
// rebalancing of routing units, and GLA partition migration selection.
// The package is deliberately free of simulator dependencies — every
// function is a deterministic map from observed samples to decisions —
// so the policies are unit-testable in isolation and the driver in
// internal/node stays a thin actuator layer.
package control

// Action says what an admission update decided.
type Action int

const (
	// Hold keeps the current limit (calm, cooling down, or at ceiling).
	Hold Action = iota
	// Throttle cut the limit after a congested window.
	Throttle
	// Probe raised the limit after a calm window (half-open recovery).
	Probe
)

// The admission controller's tuning.
const (
	// MinMPL is the throttle floor; the controller never cuts below it
	// (nor below a smaller configured ceiling).
	MinMPL = 4
	// HighConflict is the conflict ratio at which a window counts as
	// congested and the limit is cut.
	HighConflict = 0.35
	// LowConflict is the ratio below which a calm window may probe the
	// limit upward.
	LowConflict = 0.15
	// Backoff is the multiplicative cut factor applied on congestion.
	Backoff = 0.5
	// ProbeStep is the additive increase per calm window.
	ProbeStep = 4
	// Cooldown is the number of windows to hold after a cut before
	// probing resumes (the half-open guard).
	Cooldown = 2
)

// Admission is the per-node feedback controller bounding the effective
// multiprogramming level. The policy is the classic conservative
// half-open scheme: congestion triggers a multiplicative cut and a
// cooldown; calm windows probe the limit back up additively. Because
// decreases are fast and increases slow (and bounded by the configured
// ceiling), the loop cannot oscillate faster than the cooldown and
// always converges to the ceiling once congestion clears.
type Admission struct {
	maxMPL int
	minMPL int
	limit  int
	cool   int
}

// NewAdmission builds a controller starting at the configured ceiling
// maxMPL. Its floor is MinMPL, or the ceiling itself when that is lower.
func NewAdmission(maxMPL int) *Admission {
	return &Admission{maxMPL: maxMPL, minMPL: min(MinMPL, maxMPL), limit: maxMPL}
}

// Limit returns the current admission limit.
func (a *Admission) Limit() int { return a.limit }

// Decision is the outcome of one admission update.
type Decision struct {
	Limit   int
	Action  Action
	Changed bool
}

// Update feeds the conflict ratio of one observation window (the
// fraction of its lock requests that had to wait) and returns the
// (possibly unchanged) admission limit for the next window.
func (a *Admission) Update(conflict float64) Decision {
	switch {
	case conflict >= HighConflict:
		nl := max(int(float64(a.limit)*Backoff), a.minMPL)
		changed := nl != a.limit
		a.limit = nl
		a.cool = Cooldown
		return Decision{Limit: a.limit, Action: Throttle, Changed: changed}
	case a.cool > 0:
		a.cool--
		return Decision{Limit: a.limit, Action: Hold}
	case conflict <= LowConflict && a.limit < a.maxMPL:
		a.limit = min(a.limit+ProbeStep, a.maxMPL)
		return Decision{Limit: a.limit, Action: Probe, Changed: true}
	default:
		return Decision{Limit: a.limit, Action: Hold}
	}
}
