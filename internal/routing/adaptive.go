package routing

import "gemsim/internal/model"

// AdaptiveAffinity wraps the static branch-partitioned affinity with a
// mutable per-branch override table, the actuator of the dynamic
// re-routing controller: branches stay on their static home node until
// the rebalancer assigns them elsewhere. The GLA assignment is NOT
// affected — lock authorities move through the node layer's costed
// partition handoff, not through the router.
type AdaptiveAffinity struct {
	base     *DebitCreditAffinity
	override map[int]int // branch -> node
}

var _ Router = (*AdaptiveAffinity)(nil)

// NewAdaptiveAffinity wraps the given static affinity.
func NewAdaptiveAffinity(base *DebitCreditAffinity) *AdaptiveAffinity {
	return &AdaptiveAffinity{base: base, override: make(map[int]int)}
}

// Base returns the wrapped static affinity (it still provides the GLA
// map).
func (a *AdaptiveAffinity) Base() *DebitCreditAffinity { return a.base }

// Route returns the branch's current node: its override if the
// rebalancer moved it, its static home otherwise.
func (a *AdaptiveAffinity) Route(t *model.Txn) int {
	if n, ok := a.override[t.Branch]; ok {
		return n
	}
	return a.base.Route(t)
}

// NodeOfBranch returns the branch's current node without needing a
// transaction.
func (a *AdaptiveAffinity) NodeOfBranch(branch int) int {
	if n, ok := a.override[branch]; ok {
		return n
	}
	return a.base.nodeOfBranch(branch)
}

// SetOverride routes a branch to the given node from now on. Setting
// the branch's static home removes the override.
func (a *AdaptiveAffinity) SetOverride(branch, node int) {
	if a.base.nodeOfBranch(branch) == node {
		delete(a.override, branch)
		return
	}
	a.override[branch] = node
}

// Overrides returns the number of active overrides.
func (a *AdaptiveAffinity) Overrides() int { return len(a.override) }
