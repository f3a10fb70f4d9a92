package workload

import (
	"fmt"
	"time"

	"gemsim/internal/rng"
)

// Skew configures non-uniform reference behaviour for the debit-credit
// generator: Zipf-distributed branch and account selection, an optional
// two-level hot-spot set, and a piecewise-constant drift schedule that
// rotates the hot set through the branch space mid-run. A nil Skew (or
// the zero value) reproduces the uniform Table 4.1 reference string
// draw for draw.
type Skew struct {
	// BranchTheta is the Zipf skew of branch selection (0 uniform,
	// larger more skewed; must be < 1 for the Gray inverse-CDF).
	BranchTheta float64
	// AccountTheta is the Zipf skew of the account selection within the
	// chosen branch.
	AccountTheta float64
	// HotFraction is the fraction of branches forming the hot set
	// (two-level b-c model); 0 disables the hot-spot layer.
	HotFraction float64
	// HotProb is the probability that a transaction's home branch is
	// drawn from the hot set.
	HotProb float64
	// Drift lists hot-set rotations in schedule order. Each step, once
	// its time arrives, additionally rotates branch ranks by
	// Rotate*Branches, shifting which physical branches are hot.
	Drift []DriftStep
}

// DriftStep is one entry of the drift schedule.
type DriftStep struct {
	// At is the simulated time the rotation takes effect.
	At time.Duration
	// Rotate is the additional rotation as a fraction of the branch
	// space, cumulative over preceding steps.
	Rotate float64
}

// Enabled reports whether the skew changes anything relative to the
// uniform generator.
func (s *Skew) Enabled() bool {
	if s == nil {
		return false
	}
	return s.BranchTheta > 0 || s.AccountTheta > 0 || (s.HotFraction > 0 && s.HotProb > 0) || len(s.Drift) > 0
}

// Validate checks parameter ranges.
func (s *Skew) Validate() error {
	if s == nil {
		return nil
	}
	if s.BranchTheta < 0 || s.BranchTheta >= 1 {
		return fmt.Errorf("workload: branch skew theta %v out of [0,1)", s.BranchTheta)
	}
	if s.AccountTheta < 0 || s.AccountTheta >= 1 {
		return fmt.Errorf("workload: account skew theta %v out of [0,1)", s.AccountTheta)
	}
	if s.HotFraction < 0 || s.HotFraction > 1 {
		return fmt.Errorf("workload: hot fraction %v out of [0,1]", s.HotFraction)
	}
	if s.HotProb < 0 || s.HotProb > 1 {
		return fmt.Errorf("workload: hot probability %v out of [0,1]", s.HotProb)
	}
	if (s.HotProb > 0) != (s.HotFraction > 0) {
		return fmt.Errorf("workload: hot-spot set needs both HotFraction and HotProb positive")
	}
	for i, d := range s.Drift {
		if d.At < 0 {
			return fmt.Errorf("workload: drift step %d at negative time %v", i, d.At)
		}
		if d.Rotate <= 0 || d.Rotate >= 1 {
			return fmt.Errorf("workload: drift step %d rotation %v out of (0,1)", i, d.Rotate)
		}
		if i > 0 && d.At < s.Drift[i-1].At {
			return fmt.Errorf("workload: drift steps not in schedule order at step %d", i)
		}
	}
	return nil
}

// skewState holds the precomputed samplers for one generator. The zeta
// sums behind a Zipf sampler are O(n) to build, so they are prepared
// once at construction and shared by all draws.
type skewState struct {
	cfg      Skew
	branches int
	hotN     int       // hot-set size in branches (0: no hot set)
	branchZ  *rng.Zipf // over all branches (no hot set)
	hotZ     *rng.Zipf // over the hot set
	coldZ    *rng.Zipf // over the cold remainder
	acctZ    *rng.Zipf // over accounts within a branch
}

func newSkewState(cfg *Skew, branches, accountsPerBranch int) *skewState {
	st := &skewState{cfg: *cfg, branches: branches}
	if cfg.HotFraction > 0 && cfg.HotProb > 0 {
		st.hotN = int(cfg.HotFraction*float64(branches) + 0.5)
		if st.hotN < 1 {
			st.hotN = 1
		}
		if st.hotN > branches {
			st.hotN = branches
		}
	}
	if st.hotN > 0 {
		st.hotZ = rng.NewZipf(nil, int64(st.hotN), cfg.BranchTheta)
		if cold := branches - st.hotN; cold > 0 {
			st.coldZ = rng.NewZipf(nil, int64(cold), cfg.BranchTheta)
		}
	} else if cfg.BranchTheta > 0 {
		st.branchZ = rng.NewZipf(nil, int64(branches), cfg.BranchTheta)
	}
	if cfg.AccountTheta > 0 {
		st.acctZ = rng.NewZipf(nil, int64(accountsPerBranch), cfg.AccountTheta)
	}
	return st
}

// rotation returns the branch-rank rotation active at time t: the
// cumulative rotations of all drift steps whose time has arrived.
func (st *skewState) rotation(t time.Duration) int {
	var frac float64
	for _, d := range st.cfg.Drift {
		if d.At > t {
			break
		}
		frac += d.Rotate
	}
	if frac == 0 {
		return 0
	}
	rot := int(frac*float64(st.branches)+0.5) % st.branches
	return rot
}

// branchAt draws the home branch for a transaction submitted at time t:
// a rank from the (possibly two-level) skewed distribution, rotated by
// the active drift offset into a physical branch number.
func (st *skewState) branchAt(src *rng.Source, t time.Duration) int {
	var rank int
	switch {
	case st.hotN > 0:
		if st.coldZ == nil || src.Bool(st.cfg.HotProb) {
			rank = int(st.hotZ.Draw(src))
		} else {
			rank = st.hotN + int(st.coldZ.Draw(src))
		}
	case st.branchZ != nil:
		rank = int(st.branchZ.Draw(src))
	default:
		rank = src.Intn(st.branches)
	}
	return (rank + st.rotation(t)) % st.branches
}

// account draws the account index within the chosen branch.
func (st *skewState) account(src *rng.Source, accountsPerBranch int) int {
	if st.acctZ != nil {
		return int(st.acctZ.Draw(src))
	}
	return src.Intn(accountsPerBranch)
}
