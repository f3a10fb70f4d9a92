package node

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"gemsim/internal/model"
	"gemsim/internal/sim"
	"gemsim/internal/trace"
)

// grantTxn is one scripted submission: a transaction with the given
// references arrives at node at simulated time at.
type grantTxn struct {
	at   time.Duration
	node int
	refs []model.Ref
}

func rd(n int32) model.Ref { return model.Ref{Page: pgID(n)} }
func wr(n int32) model.Ref { return model.Ref{Page: pgID(n), Write: true} }

// grantCase is a scripted run in which one answering site hands out a
// grant: after act, the waiter (transaction id tid) must end its wait —
// its lock/<span> span — at end and then commit. A crash spawns the
// recovery process; nothing else but the transactions spawns one.
type grantCase struct {
	name   string
	params Params
	txns   []grantTxn
	actAt  time.Duration
	act    func(*System)
	crash  bool
	tid    int64
	span   string
	end    time.Duration
}

// grantFaultParams arms the failure machinery with a lock-wait timeout
// long enough not to fire in the scripted runs.
func grantFaultParams(nodes int, coupling Coupling) Params {
	p := testParams(nodes, coupling, false)
	p.CheckInvariants = false
	p.LockWaitTimeout = 5 * time.Second
	p.DetectDelay = 20 * time.Millisecond
	p.ArmFaults()
	return p
}

// grantCases covers the sites that answer grants a cancellation, a
// crash or the crash recovery unblocked. Transactions are scripted
// (scriptGen's database, submissions at fixed times, no arrival
// source); modGLA puts page n in partition n mod nodes. The end times
// are pinned: a change to how grants are answered must not move them.
func grantCases() []grantCase {
	crash := func(node int) func(*System) { return func(s *System) { s.CrashNode(node) } }
	var cases []grantCase
	// Deadlock victim: V (tid 2) holds page 4 and queues for a write on
	// page 2 behind H's read; R (tid 3) queues behind V. H closes the
	// cycle on page 4 and the younger V is the victim: cancelling V's
	// request grants R, on another node (a wakeup under GEM, a grant
	// message under PCL).
	for _, c := range []struct {
		coupling Coupling
		span     string
		end      time.Duration
	}{
		{CouplingGEM, "wait", 107078576},
		{CouplingPCL, "remote", 108058176},
	} {
		cases = append(cases, grantCase{
			name:   "victim/" + c.coupling.String(),
			params: testParams(2, c.coupling, false),
			txns: []grantTxn{
				{0, 0, []model.Ref{rd(2), rd(10), rd(12), rd(14), wr(4)}},
				{time.Millisecond, 0, []model.Ref{wr(4), wr(2)}},
				{40 * time.Millisecond, 1, []model.Ref{rd(2)}},
			},
			tid: 3, span: c.span, end: c.end,
		})
	}
	// Crash: V (tid 2) at node 1 queues for a write on page 1 behind H's
	// read, R (tid 3) queues behind V; node 1 crashes and the kill of V
	// cancels its request, granting R (a wakeup from the survivor that
	// takes over under GEM, a grant from the partition's node under
	// PCL).
	for _, c := range []struct {
		coupling Coupling
		rNode    int
		span     string
		end      time.Duration
	}{
		{CouplingGEM, 0, "wait", 61010000},
		{CouplingPCL, 2, "remote", 61010000},
	} {
		cases = append(cases, grantCase{
			name:   "crash/" + c.coupling.String(),
			params: grantFaultParams(3, c.coupling),
			txns: []grantTxn{
				{0, 0, []model.Ref{rd(1), rd(3), rd(6), rd(9)}},
				{15 * time.Millisecond, 1, []model.Ref{wr(1)}},
				{30 * time.Millisecond, c.rNode, []model.Ref{rd(1)}},
			},
			actAt: 60 * time.Millisecond, act: crash(1), crash: true,
			tid: 3, span: c.span, end: c.end,
		})
	}
	// Cancellation at a node that no longer serves the partition: V
	// (tid 2) at node 0 queues for a write on page 3 of partition 0
	// behind H's read, R (tid 3) queues behind V; the partition moves
	// to node 1 (as a GLA migration would) and V's wait times out. Its
	// cancellation grants R, answered from node 1.
	cancel := grantFaultParams(3, CouplingPCL)
	cancel.LockWaitTimeout = 80 * time.Millisecond
	cases = append(cases, grantCase{
		name:   "cancel/PCL",
		params: cancel,
		txns: []grantTxn{
			{0, 1, []model.Ref{rd(3), rd(1), rd(4), rd(7), rd(10), rd(13)}},
			{15 * time.Millisecond, 0, []model.Ref{wr(3)}},
			{30 * time.Millisecond, 2, []model.Ref{rd(3)}},
		},
		actAt: 60 * time.Millisecond, act: func(s *System) { s.glaHome[0] = 1 },
		tid: 3, span: "remote", end: 106868297,
	})
	// Recovery release: the loser L (tid 1) at node 1 holds a read lock
	// on page 2 of partition 2 when node 1 crashes; W (tid 2) waits for
	// a write on it. The coordinator (node 0) releases L's locks, and
	// the grant to W is answered from partition 2's node.
	cases = append(cases, grantCase{
		name:   "recovery-release/PCL",
		params: grantFaultParams(3, CouplingPCL),
		txns: []grantTxn{
			{0, 1, []model.Ref{rd(2), rd(1), rd(4), rd(7), rd(10), rd(13)}},
			{15 * time.Millisecond, 0, []model.Ref{wr(2)}},
		},
		actAt: 60 * time.Millisecond, act: crash(1), crash: true,
		tid: 2, span: "remote", end: 83040000,
	})
	// Redo fence: page 2 was committed at node 2, then the loser at
	// node 1 modifies it and node 1 crashes. Recovery fences the page;
	// W (tid 3) queues for a write behind the fence, and the fence
	// release after the page's redo grants W from partition 2's node.
	cases = append(cases, grantCase{
		name:   "redo-fence/PCL",
		params: grantFaultParams(3, CouplingPCL),
		txns: []grantTxn{
			{0, 2, []model.Ref{wr(2)}},
			{40 * time.Millisecond, 1, []model.Ref{wr(2), rd(1), rd(4), rd(7), rd(10), rd(13)}},
			{115 * time.Millisecond, 0, []model.Ref{wr(2)}},
		},
		actAt: 100 * time.Millisecond, act: crash(1), crash: true,
		tid: 3, span: "remote", end: 165149600,
	})
	return cases
}

// runGrantCase runs c for two simulated seconds and returns its trace
// and the number of processes spawned.
func runGrantCase(t *testing.T, c grantCase) (string, int64) {
	t.Helper()
	var buf strings.Builder
	params := c.params
	params.Tracer = trace.New(&buf, trace.JSONL)
	env := sim.NewEnv()
	t.Cleanup(env.Stop)
	sys, err := NewSystem(env, params, &scriptGen{db: testDB()}, typeRouter{params.Nodes}, modGLA{params.Nodes})
	if err != nil {
		t.Fatal(err)
	}
	for _, tx := range c.txns {
		env.After(tx.at, func() { sys.nodes[tx.node].admit(model.Txn{Type: tx.node, Refs: tx.refs}) })
	}
	if c.act != nil {
		env.After(c.actAt, func() { c.act(sys) })
	}
	if err := env.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := params.Tracer.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.String(), env.Spawns()
}

// TestGrantSitesAnswerWaiters checks, for every site that answers
// grants a cancellation, a crash or the crash recovery unblocked, that
// the waiter resumes with its grant at the scripted time and commits,
// and that answering the grant spawned no process.
func TestGrantSitesAnswerWaiters(t *testing.T) {
	for _, c := range grantCases() {
		t.Run(c.name, func(t *testing.T) {
			tr, spawns := runGrantCase(t, c)
			want := int64(len(c.txns))
			if c.crash {
				want++
			}
			if spawns != want {
				t.Errorf("%d processes spawned, want %d: the transactions and the recovery", spawns, want)
			}
			var ends []time.Duration
			committed := false
			for _, line := range strings.Split(strings.TrimSpace(tr), "\n") {
				var ev struct {
					TS, Dur   float64
					Tid       int64
					Cat, Name string
				}
				if err := json.Unmarshal([]byte(line), &ev); err != nil {
					t.Fatal(err)
				}
				if ev.Tid != c.tid {
					continue
				}
				switch {
				case ev.Cat == "lock" && ev.Name == c.span:
					ends = append(ends, usToDuration(ev.TS)+usToDuration(ev.Dur))
				case ev.Cat == "txn" && ev.Name == "txn":
					committed = true
				}
			}
			if len(ends) != 1 || ends[0] != c.end {
				t.Errorf("waiter %d: lock/%s spans end at %v, want one at %v", c.tid, c.span, ends, c.end)
			}
			if !committed {
				t.Errorf("waiter %d did not commit", c.tid)
			}
		})
	}
}

// usToDuration converts a trace timestamp in microseconds, printed to
// the nanosecond, back to a duration.
func usToDuration(us float64) time.Duration { return time.Duration(math.Round(us * 1000)) }
