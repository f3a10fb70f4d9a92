package node

import (
	"fmt"
	"time"

	"gemsim/internal/model"
	"gemsim/internal/rng"
	"gemsim/internal/sim"
	"gemsim/internal/workload"
)

// pooledTerminals is the hyperscale closed-loop source: it models
// terminals*nodes closed-loop terminals without a goroutine per
// terminal. An idle (thinking) terminal is one pooled Tier-1 calendar
// event; a drawn transaction becomes a goroutine only when its target
// node has a free multiprogramming slot, and queues in a per-node
// ready ring otherwise. Live goroutines are therefore bounded by
// nodes*MPL regardless of the terminal population, which is what lets
// the hyperscale preset simulate millions of terminals.
//
// Compared to StartClosed (one goroutine and one private think stream
// per terminal), the pooled source draws think times from a single
// shared stream and admission is capped at the MPL limit up front
// instead of queueing inside the node's semaphore. The stationary
// behavior is the same closed queueing network, but the random-number
// consumption differs, so pooled runs are deterministic among
// themselves yet not byte-comparable with StartClosed runs — which is
// why the classic presets stay on StartClosed.
type pooledTerminals struct {
	s         *System
	thinkTime time.Duration
	think     *rng.Source
	gen       *rng.Source
	tgen      workload.TimedGenerator
	timed     bool
	wake      func() // hoisted think-expiry callback: one closure total

	ready   []readyQ // per node, FIFO
	running []int    // per node, admitted transactions in flight
}

// readyItem is one drawn transaction waiting for a free slot at its
// target node. arrive is the draw time, so time spent in the ready
// ring lands in the input-queue wait metric exactly like semaphore
// admission wait does for StartClosed.
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

// StartClosedPooled starts the pooled closed-loop source: terminals
// per node, each thinking for an exponentially distributed time
// between transactions, with idle terminals held as calendar events
// instead of goroutines. Use for hyperscale terminal populations; see
// the pooledTerminals doc for how it differs from StartClosed. It fails
// for a non-positive terminal count.
func (s *System) StartClosedPooled(terminals int, thinkTime time.Duration) error {
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
	pt.tgen, pt.timed = s.gen.(workload.TimedGenerator)
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
	var spec model.Txn
	if pt.timed {
		spec = pt.tgen.NextAt(pt.gen, s.env.Now())
	} else {
		spec = s.gen.Next(pt.gen)
	}
	target := s.router.Route(&spec)
	if s.faultsOn {
		target = s.aliveTarget(target)
	}
	if s.ctl != nil {
		s.ctl.observeRoute(spec.Branch)
	}
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
	n := s.nodes[exec]
	s.env.Spawn("txn", func(p *sim.Proc) {
		s.runWithRetry(p, n, it.spec, it.arrive)
		pt.done(home)
	})
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
