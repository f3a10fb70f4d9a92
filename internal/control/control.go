// Package control holds the pure decision logic of the adaptive load
// control subsystem: feedback-driven admission (effective MPL), load
// rebalancing of routing units, and GLA partition migration selection.
// The package is deliberately free of simulator dependencies — every
// function is a deterministic map from observed samples to decisions —
// so the policies are unit-testable in isolation and the driver in
// internal/node stays a thin actuator layer.
package control

// Sample is one observation window of a node, assembled by the driver
// from the simulator's windowed counters.
type Sample struct {
	// Conflict is the fraction of lock requests that had to wait in the
	// window (lock waits / lock requests).
	Conflict float64
	// RT is the mean response time of the window's commits in seconds
	// (0 when the window had no commits).
	RT float64
	// Commits counts the window's committed transactions.
	Commits int64
}

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

// AdmissionParams configures the per-node admission controller.
type AdmissionParams struct {
	// MaxMPL is the configured multiprogramming ceiling (the static
	// limit the controller replaces).
	MaxMPL int
	// MinMPL is the throttle floor; the controller never cuts below it.
	MinMPL int
	// HighConflict is the conflict ratio at which a window counts as
	// congested and the limit is cut.
	HighConflict float64
	// LowConflict is the ratio below which a calm window may probe the
	// limit upward.
	LowConflict float64
	// Backoff is the multiplicative cut factor applied on congestion,
	// in (0, 1).
	Backoff float64
	// ProbeStep is the additive increase per calm window.
	ProbeStep int
	// Cooldown is the number of windows to hold after a cut before
	// probing resumes (the half-open guard).
	Cooldown int
	// RTFactor, when positive, also treats a window as congested when
	// its mean response time exceeds RTFactor times the calm baseline
	// (an exponentially weighted average of calm-window RTs).
	RTFactor float64
}

// Admission is the per-node feedback controller bounding the effective
// multiprogramming level. The policy is the classic conservative
// half-open scheme: congestion triggers a multiplicative cut and a
// cooldown; calm windows probe the limit back up additively. Because
// decreases are fast and increases slow (and bounded by the configured
// ceiling), the loop cannot oscillate faster than the cooldown and
// always converges to the ceiling once congestion clears.
type Admission struct {
	p      AdmissionParams
	limit  int
	cool   int
	baseRT float64
}

// NewAdmission builds a controller starting at the configured ceiling.
func NewAdmission(p AdmissionParams) *Admission {
	if p.MaxMPL < 1 {
		p.MaxMPL = 1
	}
	if p.MinMPL < 1 {
		p.MinMPL = 1
	}
	if p.MinMPL > p.MaxMPL {
		p.MinMPL = p.MaxMPL
	}
	if p.Backoff <= 0 || p.Backoff >= 1 {
		p.Backoff = 0.5
	}
	if p.ProbeStep < 1 {
		p.ProbeStep = 1
	}
	if p.Cooldown < 0 {
		p.Cooldown = 0
	}
	return &Admission{p: p, limit: p.MaxMPL}
}

// Limit returns the current admission limit.
func (a *Admission) Limit() int { return a.limit }

// Decision is the outcome of one admission update.
type Decision struct {
	Limit   int
	Action  Action
	Changed bool
}

// Update feeds one observation window and returns the (possibly
// unchanged) admission limit for the next window.
func (a *Admission) Update(s Sample) Decision {
	congested := s.Conflict >= a.p.HighConflict
	if !congested && a.p.RTFactor > 0 && a.baseRT > 0 && s.Commits > 0 && s.RT > a.p.RTFactor*a.baseRT {
		congested = true
	}
	switch {
	case congested:
		nl := int(float64(a.limit) * a.p.Backoff)
		if nl < a.p.MinMPL {
			nl = a.p.MinMPL
		}
		changed := nl != a.limit
		a.limit = nl
		a.cool = a.p.Cooldown
		return Decision{Limit: a.limit, Action: Throttle, Changed: changed}
	case a.cool > 0:
		a.cool--
		return Decision{Limit: a.limit, Action: Hold}
	case s.Conflict <= a.p.LowConflict && a.limit < a.p.MaxMPL:
		a.observeCalm(s)
		a.limit += a.p.ProbeStep
		if a.limit > a.p.MaxMPL {
			a.limit = a.p.MaxMPL
		}
		return Decision{Limit: a.limit, Action: Probe, Changed: true}
	default:
		a.observeCalm(s)
		return Decision{Limit: a.limit, Action: Hold}
	}
}

// observeCalm folds a calm window's response time into the baseline the
// RTFactor congestion test compares against.
func (a *Admission) observeCalm(s Sample) {
	if s.Commits == 0 || s.RT <= 0 {
		return
	}
	if a.baseRT == 0 {
		a.baseRT = s.RT
		return
	}
	a.baseRT = 0.8*a.baseRT + 0.2*s.RT
}
