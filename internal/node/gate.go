package node

import (
	"gemsim/internal/attrib"
	"gemsim/internal/model"
	"gemsim/internal/sim"
)

// gate is a node's admission gate: the multiprogramming level (MPL,
// Table 4.1), the one admission mechanism both workload sources use.
// At most limit transactions hold a slot; the rest wait in one FIFO
// ring. Fresh work (an open-loop arrival or a terminal's next
// transaction) is admitted on the callback tier and becomes a process
// only when it gets a slot, so queued work holds no coroutine. A
// transaction resubmitted after a crash is already a process: it parks
// in the ring, the only ring item that is one.
//
// A released slot passes straight to the oldest item, spawning it or
// unparking it in the releasing instant. The limit is the actuator of
// the adaptive controller: raising it admits queued items at once,
// lowering it never preempts holders — the excess drains as they
// release.
type gate struct {
	env   *sim.Env
	name  string
	limit int
	held  int
	ring  []gateItem
	head  int // ring[head:] is the queue
	start func(gateItem)

	// Station statistics, resettable at the end of warm-up; holders run
	// arbitrary work, so only Little's law is checkable on a gate.
	entries   int64
	waitSum   sim.Time
	statStart sim.Time
	lastQT    sim.Time
	qArea     float64 // waiting-items time integral, in seconds
}

// gateItem is one transaction waiting for a slot: fresh work (p nil),
// or a resubmitted process parked in the ring. at is when it entered
// the gate, which for fresh work is its arrival.
type gateItem struct {
	spec model.Txn
	at   sim.Time
	p    *sim.Proc
}

// newGate makes a gate of the given limit; start runs, in kernel
// context, for each fresh item that gets a slot.
func newGate(env *sim.Env, name string, limit int, start func(gateItem)) *gate {
	if limit <= 0 {
		panic("node: gate " + name + " needs a positive limit")
	}
	return &gate{env: env, name: name, limit: limit, start: start}
}

// queued returns the number of waiting items.
func (g *gate) queued() int { return len(g.ring) - g.head }

// admit takes fresh work: it starts at once if a slot is free and
// waits in the ring otherwise.
func (g *gate) admit(spec model.Txn) {
	g.entries++
	it := gateItem{spec: spec, at: g.env.Now()}
	if g.held < g.limit {
		g.held++
		g.start(it)
		return
	}
	g.push(it)
}

// wait takes a slot for the calling process, parking it in the ring
// while none is free.
func (g *gate) wait(p *sim.Proc) {
	g.entries++
	if g.held < g.limit {
		g.held++
		return
	}
	g.push(gateItem{at: g.env.Now(), p: p})
	p.Park()
}

// push queues an item at the ring's tail. A full ring first moves its
// queue down over the consumed prefix, so a queue that never empties
// does not grow the ring without bound.
func (g *gate) push(it gateItem) {
	g.qAccumulate()
	if g.head > 0 && len(g.ring) == cap(g.ring) {
		n := copy(g.ring, g.ring[g.head:])
		clear(g.ring[n:])
		g.ring, g.head = g.ring[:n], 0
	}
	g.ring = append(g.ring, it)
}

// release frees a slot. While the limit is not exceeded the slot
// passes to the oldest item, so held is unchanged across the hand-off.
func (g *gate) release() {
	if g.held <= g.limit && g.queued() > 0 {
		g.handOff()
		return
	}
	g.held--
}

// handOff gives the slot held for it to the oldest item: fresh work is
// spawned, a parked process is woken.
func (g *gate) handOff() {
	g.qAccumulate()
	it := g.ring[g.head]
	g.ring[g.head] = gateItem{}
	g.head++
	if g.head == len(g.ring) {
		g.ring, g.head = g.ring[:0], 0
	}
	g.waitSum += g.env.Now() - it.at
	if it.p != nil {
		it.p.Unpark()
		return
	}
	g.start(it)
}

// setLimit changes the limit, clamped to at least one. A raise admits
// queued items at once, in ring order.
func (g *gate) setLimit(n int) {
	g.limit = max(n, 1)
	for g.held < g.limit && g.queued() > 0 {
		g.held++
		g.handOff()
	}
}

// qAccumulate integrates the ring length up to the current instant;
// called only when the length is about to change.
func (g *gate) qAccumulate() {
	now := g.env.Now()
	g.qArea += float64(g.queued()) * (now - g.lastQT).Seconds()
	g.lastQT = now
}

// resetStats discards the gate's statistics, keeping its occupancy.
func (g *gate) resetStats() {
	now := g.env.Now()
	g.statStart, g.lastQT = now, now
	g.qArea, g.entries, g.waitSum = 0, 0, 0
}

// counters returns the gate's station statistics since resetStats.
func (g *gate) counters() attrib.StationCounters {
	now := g.env.Now()
	return attrib.StationCounters{
		Name:     g.name,
		Servers:  g.limit,
		Elapsed:  now - g.statStart,
		QSeconds: g.qArea + float64(g.queued())*(now-g.lastQT).Seconds(),
		Requests: g.entries,
		WaitSum:  g.waitSum,
	}
}
