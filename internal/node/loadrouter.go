package node

import (
	"gemsim/internal/model"
)

// LoadAwareRouter implements GEM-based load control: the paper's
// section 2 names "keeping system-wide status information for
// transaction routing" as one of the GEM usage forms. Every node
// maintains its current activation count in a GEM entry; the router
// reads the status entries (one GEM entry access per routing decision)
// and assigns the arriving transaction to the node with the fewest
// active transactions, breaking ties towards the lowest node id.
//
// Unlike the static affinity tables, this strategy needs no knowledge
// of the workload's reference distribution — it trades locality for
// adaptive load balance, which pairs with GEM locking's insensitivity
// to the routing choice.
type LoadAwareRouter struct {
	sys *System
}

// NewLoadAwareRouter creates a router; it becomes functional once the
// system it is passed to is constructed (NewSystem attaches itself).
func NewLoadAwareRouter() *LoadAwareRouter { return &LoadAwareRouter{} }

// attach is called by NewSystem.
func (r *LoadAwareRouter) attach(s *System) { r.sys = s }

// Route picks the node with the fewest active transactions.
func (r *LoadAwareRouter) Route(*model.Txn) int {
	if r.sys == nil {
		return 0
	}
	// Reading the status entries costs one GEM entry access; the
	// source process occupies the GEM server but no node CPU.
	if p := r.sys.sourceProc; p != nil {
		r.sys.gemDev.AccessEntryFn(p.Continuation())
		p.Park()
	}
	best, bestActive := 0, int(^uint(0)>>1)
	for i, n := range r.sys.nodes {
		if n.active < bestActive {
			best, bestActive = i, n.active
		}
	}
	return best
}

// ActiveTxns reports the number of transactions currently admitted or
// queued at a node (diagnostics and tests).
func (s *System) ActiveTxns(node int) int { return s.nodes[node].active }
