package node

import (
	"fmt"
	"time"

	"gemsim/internal/model"
	"gemsim/internal/rng"
	"gemsim/internal/sim"
)

// pooledTerminals is the closed-loop source: it models
// terminals*nodes closed-loop terminals without a goroutine per
// terminal. An idle (thinking) terminal is one pooled Tier-1 calendar
// event, and every think time comes from one shared stream; a drawn
// transaction becomes a goroutine only when its target node has a free
// multiprogramming slot, and queues in a per-node ready ring otherwise.
// Live goroutines are therefore bounded by nodes*MPL regardless of the
// terminal population, which is what lets the hyperscale preset
// simulate millions of terminals.
type pooledTerminals struct {
	s         *System
	thinkTime time.Duration
	think     *rng.Source
	gen       *rng.Source
	wake      func() // hoisted think-expiry callback: one closure total

	ready   []readyQ // per node, FIFO
	running []int    // per node, admitted transactions in flight
	runs    sim.FreeList[pooledRun]
}

// pooledRun hands one admitted transaction to its process, pooled like
// submission: the process body is bound once per record.
type pooledRun struct {
	pt   *pooledTerminals
	n    *Node
	home int
	it   readyItem
	run  func(p *sim.Proc) // bound to start
}

// start runs the transaction and frees its slot; the record is
// recycled first.
func (r *pooledRun) start(p *sim.Proc) {
	pt, n, home, it := r.pt, r.n, r.home, r.it
	r.n, r.it = nil, readyItem{}
	pt.runs.Put(r)
	pt.s.runWithRetry(p, n, it.spec, it.arrive)
	pt.done(home)
}

// readyItem is one drawn transaction waiting for a free slot at its
// target node. arrive is the draw time, so time spent in the ready
// ring lands in the input-queue wait metric, as admission wait at a
// node's semaphore does for the open source.
type readyItem struct {
	spec   model.Txn
	arrive sim.Time
}

// readyQ is a FIFO ring over a slice with a consumed-prefix head, so
// steady-state push/pop allocates nothing and pop is O(1).
type readyQ struct {
	items []readyItem
	head  int
}

func (q *readyQ) len() int { return len(q.items) - q.head }

func (q *readyQ) push(it readyItem) { q.items = append(q.items, it) }

func (q *readyQ) pop() readyItem {
	it := q.items[q.head]
	q.items[q.head] = readyItem{}
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return it
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
		ready:     make([]readyQ, s.params.Nodes),
		running:   make([]int, s.params.Nodes),
	}
	pt.wake = pt.terminalWake
	total := terminals * s.params.Nodes
	for i := 0; i < total; i++ {
		pt.scheduleThink()
	}
	s.startCheckpoints()
	s.startAvailability()
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
// transaction, route it, and admit or enqueue it at the target node.
func (pt *pooledTerminals) terminalWake() {
	s := pt.s
	spec := s.gen.Next(pt.gen, s.env.Now())
	target := s.route(spec)
	it := readyItem{spec: spec, arrive: s.env.Now()}
	if pt.running[target] >= s.nodes[target].mpl.Limit() {
		pt.ready[target].push(it)
		return
	}
	pt.begin(target, it)
}

// begin admits one transaction at its home node: the slot is counted
// against home even if faults reroute execution, so slot accounting
// stays balanced across crashes and retries.
func (pt *pooledTerminals) begin(home int, it readyItem) {
	s := pt.s
	pt.running[home]++
	exec := home
	if s.faultsOn {
		exec = s.aliveTarget(home)
	}
	r := pt.runs.Get()
	if r == nil {
		r = &pooledRun{pt: pt}
		r.run = r.start
	}
	r.n, r.home, r.it = s.nodes[exec], home, it
	s.env.Spawn("txn", r.run)
}

// done returns a slot at home, admits the next ready transaction if
// one is waiting, and puts the finished terminal back to thinking.
func (pt *pooledTerminals) done(home int) {
	pt.running[home]--
	if pt.ready[home].len() > 0 && pt.running[home] < pt.s.nodes[home].mpl.Limit() {
		pt.begin(home, pt.ready[home].pop())
	}
	pt.scheduleThink()
}
