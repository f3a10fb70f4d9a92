package node

import (
	"fmt"
	"time"

	"gemsim/internal/control"
	"gemsim/internal/netsim"
	"gemsim/internal/routing"
	"gemsim/internal/sim"
	"gemsim/internal/trace"
)

// This file is the actuator half of the adaptive load control
// subsystem: it samples the simulator's windowed counters, feeds them
// to the pure policies in internal/control, and applies the decisions —
// per-node MPL limits through the admission gates, branch
// re-routing through the adaptive affinity table, and GLA partition
// migration through a costed handoff protocol over the communication
// subsystem. Every controller activation is a Tier-1 callback event on
// the simulation calendar reading deterministic counters, so controlled
// runs remain exactly reproducible and runs without a controller are
// untouched (no extra events, draws or allocations).

// The controller's sampling, rebalance and migration tuning (the
// admission tuning is in package control).
const (
	// controlInterval is the controller sampling period (simulated
	// time).
	controlInterval = 250 * time.Millisecond
	// rebalanceEvery runs the rebalancer every that many windows.
	rebalanceEvery = 4
	// imbalanceLimit is the max/mean per-node load ratio that triggers
	// re-routing.
	imbalanceLimit = 1.3
	// maxMoves bounds the branch moves (and GLA migrations) per
	// rebalance pass.
	maxMoves = 16
	// migrateShare is the lock-traffic share a remote node must have on
	// a GLA partition before the partition migrates to it.
	migrateShare = 0.5
	// migrateMinLocks is the minimum observed lock traffic on a
	// partition before migration is considered (noise guard).
	migrateMinLocks = 100
	// handoffEntriesPerMsg is the batch size of the migration handoff
	// protocol (directory entries per long message).
	handoffEntriesPerMsg = 64
)

// ctlCounters is one node's cumulative counter snapshot between
// controller windows.
type ctlCounters struct {
	lockReqs  int64
	lockWaits int64
	commits   int64
}

// controller drives the load-control loop of one system.
type controller struct {
	s        *System
	adaptive *routing.AdaptiveAffinity // nil: router not re-routable
	adm      []*control.Admission
	prev     []ctlCounters
	routeCnt map[int]int64   // branch -> submissions this rebalance window
	partCnt  []map[int]int64 // GLA partition -> requester node -> locks (PCL)
	ticks    int
	// migrating marks partitions with a handoff in flight.
	migrating map[int]bool
	// Action counts since the last ResetStats.
	throttles  int64
	probes     int64
	reroutes   int64
	migrations int64
}

// StartControl installs and starts the load controller: per-node
// feedback admission on the effective multiprogramming level, periodic
// rebalancing of the branch routing table and, under PCL, GLA partition
// migration. It must be called before the workload source starts;
// without it the allocation stays static at zero overhead.
func (s *System) StartControl() {
	c := &controller{
		s:         s,
		adm:       make([]*control.Admission, len(s.nodes)),
		prev:      make([]ctlCounters, len(s.nodes)),
		routeCnt:  make(map[int]int64),
		migrating: make(map[int]bool),
	}
	if aa, ok := s.router.(*routing.AdaptiveAffinity); ok {
		c.adaptive = aa
	}
	if s.params.Coupling == CouplingPCL {
		c.partCnt = make([]map[int]int64, len(s.tables))
	}
	for i := range c.adm {
		c.adm[i] = control.NewAdmission(s.params.MPL)
	}
	s.ctl = c
	var tick func()
	tick = func() {
		c.tick()
		s.env.After(controlInterval, tick)
	}
	s.env.After(controlInterval, tick)
}

// observeRoute counts one submitted transaction against its branch,
// for the adaptive router's rebalancing, the counts' only reader.
func (c *controller) observeRoute(branch int) {
	if c.adaptive != nil {
		c.routeCnt[branch]++
	}
}

// observePart counts one lock request of a node against the partition's
// GLA (PCL re-routing only).
func (c *controller) observePart(gla, node int) {
	if c.partCnt == nil {
		return
	}
	m := c.partCnt[gla]
	if m == nil {
		m = make(map[int]int64, 4)
		c.partCnt[gla] = m
	}
	m[node]++
}

// tick runs one controller window: per-node admission updates, and —
// every rebalanceEvery windows — a rebalance pass. It runs on the
// kernel's callback tier and never blocks.
func (c *controller) tick() {
	s := c.s
	now := s.env.Now()
	for i, n := range s.nodes {
		cur := ctlCounters{
			lockReqs:  n.localLocks + n.remoteLocks,
			lockWaits: n.lockWaits,
			commits:   n.commits,
		}
		prev := c.prev[i]
		c.prev[i] = cur
		if cur.lockReqs < prev.lockReqs || cur.commits < prev.commits {
			// The counters were reset under the window (end of warm-up):
			// skip it and re-base on the fresh values.
			continue
		}
		if s.faultsOn && s.down[i] {
			continue
		}
		var conflict float64
		if dReq := cur.lockReqs - prev.lockReqs; dReq > 0 {
			conflict = float64(cur.lockWaits-prev.lockWaits) / float64(dReq)
		}
		dec := c.adm[i].Update(conflict)
		if !dec.Changed {
			continue
		}
		n.gate.setLimit(dec.Limit)
		// Only a throttle or a probe changes the limit.
		kind := trace.ControlThrottle
		switch dec.Action {
		case control.Throttle:
			c.throttles++
		case control.Probe:
			c.probes++
			kind = trace.ControlProbe
		}
		if tr := s.tracer; tr.Enabled() {
			tr.Instant("control", int64(i), kind, now,
				fmt.Sprintf("node=%d mpl=%d", i, dec.Limit))
			tr.Counter("control", "mpl"+itoa(i), now, float64(dec.Limit))
		}
	}
	c.ticks++
	if c.ticks%rebalanceEvery == 0 {
		c.rebalance()
	}
}

// aliveNodes returns the ids of nodes currently up.
func (c *controller) aliveNodes() []int {
	s := c.s
	alive := make([]int, 0, len(s.nodes))
	for i := range s.nodes {
		if !s.faultsOn || !s.down[i] {
			alive = append(alive, i)
		}
	}
	return alive
}

// rebalance recomputes the branch routing table from the observed
// per-branch load and, under PCL, selects GLA partitions to migrate
// toward their dominant requesters. The observation windows restart
// afterwards.
func (c *controller) rebalance() {
	s := c.s
	now := s.env.Now()
	alive := c.aliveNodes()
	if c.adaptive != nil && len(alive) >= 2 && len(c.routeCnt) > 0 {
		units := make([]control.Unit, 0, len(c.routeCnt))
		for _, b := range sortedKeys(c.routeCnt) {
			units = append(units, control.Unit{
				ID:     b,
				Node:   c.adaptive.NodeOfBranch(b),
				Weight: float64(c.routeCnt[b]),
			})
		}
		moves := control.Rebalance(units, alive, imbalanceLimit, maxMoves)
		for _, mv := range moves {
			c.adaptive.SetOverride(mv.ID, mv.To)
			c.reroutes++
			if tr := s.tracer; tr.Enabled() {
				tr.Instant("control", int64(mv.ID), trace.ControlReroute, now,
					fmt.Sprintf("branch=%d %d->%d", mv.ID, mv.From, mv.To))
			}
		}
		if tr := s.tracer; tr.Enabled() && len(moves) > 0 {
			tr.Counter("control", "overrides", now, float64(c.adaptive.Overrides()))
		}
	}
	if c.partCnt != nil && len(alive) >= 2 {
		use := make([]control.PartitionUse, 0, len(c.partCnt))
		for g := range c.partCnt {
			m := c.partCnt[g]
			if len(m) == 0 || c.migrating[g] {
				continue
			}
			by := make(map[int]float64, len(m))
			for _, nd := range sortedKeys(m) {
				by[nd] = float64(m[nd])
			}
			use = append(use, control.PartitionUse{Partition: g, Home: s.glaHomeOf(g), ByNode: by})
		}
		eligible := func(node int) bool { return !s.faultsOn || !s.down[node] }
		for _, mv := range control.Migrations(use, migrateShare, migrateMinLocks, maxMoves, eligible) {
			c.startMigration(mv.ID, mv.From, mv.To)
		}
	}
	clear(c.routeCnt)
	for g := range c.partCnt {
		c.partCnt[g] = nil
	}
}

// startMigration hands GLA partition g from its serving node to a new
// home with a costed handoff: the old home packs its partition
// directory (per-entry CPU), ships it in batched long messages, and the
// new home unpacks it (per-entry CPU on receipt) and acknowledges the
// final batch. Only then does the authority flip; requests keep flowing
// to the old home until the flip, so no request is ever unserved. The
// flip is abandoned if either side crashed or a failover reassigned the
// partition while the handoff was in flight.
func (c *controller) startMigration(g, from, to int) {
	s := c.s
	if s.glaHomeOf(g) != from || from == to {
		return
	}
	if s.faultsOn && (s.down[from] || s.down[to]) {
		return
	}
	c.migrating[g] = true
	src := s.nodes[from]
	s.env.Spawn("gla-migrate", func(p *sim.Proc) {
		start := s.env.Now()
		entries := s.partMeta[g]
		if entries < 1 {
			entries = 1
		}
		if instr := s.params.RecoveryEntryInstr; instr > 0 {
			src.cpu.Exec(p, float64(entries)*instr)
		}
		per := handoffEntriesPerMsg
		wait := s.newWait(p)
		batches := (entries + per - 1) / per
		aborted := false
		for b := 0; b < batches; b++ {
			if s.faultsOn && (s.down[from] || s.down[to]) {
				aborted = true
				break
			}
			cnt := per
			if b == batches-1 {
				cnt = entries - per*(b)
			}
			m := s.newMsg(msgGLAHandoff)
			m.gla, m.count, m.final, m.wait = g, cnt, b == batches-1, waitRef{w: wait, epoch: wait.epoch}
			s.net.SendReliable(p, from, to, netsim.Long, m)
		}
		if !aborted {
			p.Park() // until the new home acknowledged the final batch
		}
		delete(c.migrating, g)
		acked := wait.reply != nil
		s.endWait(wait)
		if aborted || !acked || s.glaHomeOf(g) != from || (s.faultsOn && s.down[to]) {
			return
		}
		s.glaHome[g] = to
		c.migrations++
		if tr := s.tracer; tr.Enabled() {
			tr.Span("control", int64(g), trace.ControlGLAMigrate, start, s.env.Now(),
				fmt.Sprintf("g=%d %d->%d entries=%d", g, from, to, entries))
			tr.Instant("control", int64(g), trace.ControlMigrate, s.env.Now(),
				fmt.Sprintf("g=%d %d->%d", g, from, to))
		}
	})
}

// handleGLAHandoff unpacks one migration batch at the new home (CPU per
// directory entry, on the callback tier) and returns the final one's
// record as the acknowledgement.
func (n *Node) handleGLAHandoff(m *message) {
	instr := n.sys.params.RecoveryEntryInstr * float64(m.count)
	if !m.final {
		n.sys.freeMsg(m)
		n.cpu.ExecFn(sim.Continuation{}, instr, nil)
		return
	}
	m.kind, m.reliable = msgGLAHandoffAck, true
	n.cpu.ExecFn(sim.Continuation{}, instr, m.sendFn)
}

// noteFailover is called when a recovery completes: the routing and
// authority allocation just changed under the controller, so a
// rebalance pass runs immediately instead of waiting for the next
// scheduled window.
func (c *controller) noteFailover() {
	c.s.env.After(0, c.rebalance)
}

// resetStats clears the controller's action counts (end of warm-up).
func (c *controller) resetStats() {
	c.throttles, c.probes, c.reroutes, c.migrations = 0, 0, 0, 0
}
