package node

import (
	"fmt"
	"time"

	"gemsim/internal/rng"
)

// pooledTerminals is the closed-loop source: it models
// terminals*nodes closed-loop terminals without a goroutine per
// terminal. An idle (thinking) terminal is one pooled Tier-1 calendar
// event, and every think time comes from one shared stream; a drawn
// transaction is admitted at its node's gate like an open-loop
// arrival, and becomes a goroutine only when it gets a slot. Live
// goroutines are therefore bounded by nodes*MPL regardless of the
// terminal population, which is what lets the hyperscale preset
// simulate millions of terminals.
type pooledTerminals struct {
	s         *System
	thinkTime time.Duration
	think     *rng.Source
	gen       *rng.Source
	wake      func() // hoisted think-expiry callback: one closure total
}

// StartClosed starts the closed-loop source: terminals per node, each
// submitting a transaction, waiting for its completion and then
// thinking for an exponentially distributed time (the TPC-A style
// closed model; the paper's evaluation uses the open model started with
// Start). Idle terminals are held as calendar events, not goroutines.
// It fails for a non-positive terminal count.
func (s *System) StartClosed(terminals int, thinkTime time.Duration) error {
	if terminals <= 0 {
		return fmt.Errorf("node: need at least one terminal per node, got %d", terminals)
	}
	pt := &pooledTerminals{
		s:         s,
		thinkTime: thinkTime,
		think:     s.split.Stream("think-pool"),
		gen:       s.split.Stream("workload"),
	}
	pt.wake = pt.terminalWake
	s.terminals = pt
	total := terminals * s.params.Nodes
	for i := 0; i < total; i++ {
		pt.scheduleThink()
	}
	s.startBackground()
	return nil
}

// scheduleThink parks one terminal in the calendar for its think time.
func (pt *pooledTerminals) scheduleThink() {
	var d time.Duration
	if pt.thinkTime > 0 {
		d = time.Duration(pt.think.Exp(pt.thinkTime.Seconds()) * float64(time.Second))
	}
	pt.s.env.After(d, pt.wake)
}

// terminalWake fires when a terminal finishes thinking: draw the next
// transaction, route it, and admit it at the target node.
func (pt *pooledTerminals) terminalWake() {
	s := pt.s
	spec := s.gen.Next(pt.gen, s.env.Now())
	s.nodes[s.route(spec)].admit(spec)
}
