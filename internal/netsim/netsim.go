// Package netsim models the communication subsystem of the loosely /
// closely coupled complex: asynchronous message passing over an
// interconnection network with a simple bandwidth delay model, and CPU
// overhead for the send and receive protocol processing on both nodes
// (5000 instructions per send or receive of a short control message,
// 8000 for a long message carrying a 4 KB page, per Table 4.1).
package netsim

import (
	"strconv"
	"time"

	"gemsim/internal/cpusrv"
	"gemsim/internal/gem"
	"gemsim/internal/rng"
	"gemsim/internal/sim"
	"gemsim/internal/trace"
)

// Class distinguishes short control messages from long page-carrying
// messages.
type Class int

const (
	// Short is a control message (lock request/grant/release, ~100 B).
	Short Class = iota + 1
	// Long is a page transfer message (~4 KB).
	Long
)

// traceKind is the declared span of a message of class c on the wire.
func (c Class) traceKind() trace.Kind {
	if c == Short {
		return trace.NetShort
	}
	return trace.NetLong
}

// String returns the class's trace name, "short" or "long".
func (c Class) String() string { return trace.Schema[c.traceKind()].Name }

// Params configures the network.
type Params struct {
	// ShortInstr is the CPU overhead in instructions for one send or
	// one receive of a short message.
	ShortInstr float64
	// LongInstr is the CPU overhead for one send or receive of a long
	// message.
	LongInstr float64
	// ShortBytes and LongBytes are the message sizes used by the
	// bandwidth delay model.
	ShortBytes int
	LongBytes  int
	// BandwidthBytesPerSec is the network transmission bandwidth.
	BandwidthBytesPerSec float64
	// WireLatency is an additional fixed propagation delay.
	WireLatency time.Duration
	// LossProb is the probability that an unreliable message is lost in
	// transit (fault injection). The sender still pays the send
	// overhead; the receiver never sees the message. Requires a loss
	// source via SetLossSource.
	LossProb float64
}

// DefaultParams returns the Table 4.1 communication settings.
func DefaultParams() Params {
	return Params{
		ShortInstr:           5000,
		LongInstr:            8000,
		ShortBytes:           100,
		LongBytes:            4096,
		BandwidthBytesPerSec: 10 * 1000 * 1000,
	}
}

// Handler processes a delivered message at the receiving node, after
// the receive CPU overhead was charged. For messages the receiver
// classified as inline (RegisterInline) it runs in kernel context with
// p == nil and must not block; for all other messages it runs in a
// dedicated process.
type Handler func(p *sim.Proc, from int, msg any)

// StoreTransport configures storage-based message exchange: messages
// travel through GEM instead of the interconnection network ("all
// messages are exchanged across the GEM", section 2 of the paper). The
// CPU stays busy for the store access.
type StoreTransport struct {
	// Store is the shared memory the messages travel through.
	Store *gem.GEM
	// ShortInstr and LongInstr are the CPU overheads per send or
	// receive operation; storage-based communication avoids the
	// network protocol stack, so they are far below the 5000/8000
	// instructions of message passing.
	ShortInstr float64
	LongInstr  float64
}

type endpoint struct {
	cpu     *cpusrv.CPU
	handler Handler
	// inline classifies messages whose handler runs on the callback
	// tier (nil: every message gets a handler process).
	inline func(msg any) bool
}

// Network connects the nodes.
type Network struct {
	env       *sim.Env
	params    Params
	endpoints []endpoint
	transport *StoreTransport

	lossSrc   *rng.Source
	downCheck func(node int) bool
	tracer    *trace.Tracer

	shortSent int64
	longSent  int64
	dropped   int64

	deliveries sim.FreeList[delivery] // idle in-transit records
}

// New creates a network for the given number of nodes. Each node must
// Register before messages are sent to it.
func New(env *sim.Env, params Params, nodes int) *Network {
	return &Network{env: env, params: params, endpoints: make([]endpoint, nodes)}
}

// Register attaches a node's CPU and message handler.
func (n *Network) Register(node int, cpu *cpusrv.CPU, h Handler) {
	n.endpoints[node] = endpoint{cpu: cpu, handler: h}
}

// RegisterInline installs a classifier for messages whose handler does
// not block: those are delivered on the callback tier (the handler
// receives p == nil) instead of spawning a receive process per
// message.
func (n *Network) RegisterInline(node int, classify func(msg any) bool) {
	n.endpoints[node].inline = classify
}

// UseStore switches the network to storage-based message exchange
// through the given shared store.
func (n *Network) UseStore(t *StoreTransport) { n.transport = t }

// SetLossSource installs the random source used to draw message-loss
// decisions when Params.LossProb > 0.
func (n *Network) SetLossSource(src *rng.Source) { n.lossSrc = src }

// SetDownCheck installs a predicate consulted at delivery time: when it
// reports the receiver down, the message is dropped (the sender has
// already paid the send overhead).
func (n *Network) SetDownCheck(fn func(node int) bool) { n.downCheck = fn }

// SetTracer attaches a span tracer (nil disables tracing). Each
// network message becomes one transit span on the "net" track; lost or
// undeliverable messages become instants.
func (n *Network) SetTracer(t *trace.Tracer) { n.tracer = t }

// route formats "from>to" for trace event details.
func route(from, to int) string {
	return strconv.Itoa(from) + ">" + strconv.Itoa(to)
}

// transit returns the transmission delay for a message class.
func (n *Network) transit(c Class) time.Duration {
	bytes := n.params.ShortBytes
	if c == Long {
		bytes = n.params.LongBytes
	}
	if n.params.BandwidthBytesPerSec <= 0 {
		return n.params.WireLatency
	}
	d := time.Duration(float64(bytes) / n.params.BandwidthBytesPerSec * float64(time.Second))
	return d + n.params.WireLatency
}

// sendInstr returns the per-send (and per-receive) CPU overhead.
func (n *Network) sendInstr(c Class) float64 {
	if c == Long {
		return n.params.LongInstr
	}
	return n.params.ShortInstr
}

// Send transmits msg from node `from` to node `to`. The calling process
// is charged the send CPU overhead inline; delivery is asynchronous:
// after the transmission delay, a fresh process at the receiver is
// charged the receive overhead and then runs the receiver's handler.
//
// Send is subject to fault injection: the message is lost with
// Params.LossProb, and it is dropped when the receiver is down at
// delivery time. Callers must tolerate loss (timeout and retry).
func (n *Network) Send(p *sim.Proc, from, to int, c Class, msg any) {
	n.send(p, from, to, c, msg, false)
}

// SendReliable transmits a message that a real system would retransmit
// until acknowledged (lock releases, recovery traffic): it is exempt
// from random loss, but still dropped when the receiver is down.
func (n *Network) SendReliable(p *sim.Proc, from, to int, c Class, msg any) {
	n.send(p, from, to, c, msg, true)
}

func (n *Network) send(p *sim.Proc, from, to int, c Class, msg any, reliable bool) {
	if c == Long {
		n.longSent++
	} else {
		n.shortSent++
	}
	if n.transport != nil {
		// Store-based exchange rides on reliable shared memory: no
		// random loss and no wire delay; the store's queueing is the
		// only serialization. The sender deposits the message with its
		// CPU held, and the receiver reads it out the same way one
		// slot later; a down receiver still never picks it up.
		n.storeHold(n.endpoints[from].cpu, p.Continuation(), c, nil)
		p.Park()
		n.deliver(p, from, to, c, msg, 0, false)
		return
	}
	lost := !reliable && n.lossSrc != nil && n.params.LossProb > 0 && n.lossSrc.Float64() < n.params.LossProb
	n.endpoints[from].cpu.Exec(p, n.sendInstr(c))
	if lost {
		n.dropped++
		if n.tracer.Enabled() {
			n.tracer.Instant("net", p.TraceID(), trace.NetDrop, n.env.Now(), route(from, to))
		}
		return
	}
	n.deliver(p, from, to, c, msg, n.transit(c), n.tracer.Enabled())
}

// deliver puts msg in transit from p's node: it arrives at the
// receiver after delay, traced as a wire span when traced is set.
func (n *Network) deliver(p *sim.Proc, from, to int, c Class, msg any, delay time.Duration, traced bool) {
	d := n.deliveries.Get()
	if d == nil {
		d = &delivery{n: n}
		d.arriveFn = d.arrive
		d.receiveFn = d.receive
		d.handleFn = d.handle
		d.recvProc = d.recv
	}
	d.from, d.to, d.c, d.msg = from, to, c, msg
	d.traced = traced
	if traced {
		d.sentAt = n.env.Now()
		d.tid = p.TraceID()
	}
	n.env.After(delay, d.arriveFn)
}

// storeHold runs one CPU-held store access for a message of class c
// on cpu: a page access for a long message, a lone entry access for a
// short one.
func (n *Network) storeHold(cpu *cpusrv.CPU, cont sim.Continuation, c Class, done func()) {
	t := n.transport
	if c == Long {
		cpu.Hold(cont, t.LongInstr, t.Store.Page(), 1, done)
		return
	}
	cpu.Hold(cont, t.ShortInstr, t.Store.Entry(), 1, done)
}

// delivery is one message in transit on the wire or through the store,
// from the end of the send to the start of its handler. Records are
// pooled on the network and their steps are method values bound once,
// so a delivery allocates nothing beyond the receive process a
// blocking handler needs.
type delivery struct {
	n      *Network
	from   int
	to     int
	c      Class
	msg    any
	traced bool
	sentAt sim.Time
	tid    int64

	arriveFn  func()            // bound to arrive
	receiveFn func()            // bound to receive
	handleFn  func()            // bound to handle
	recvProc  func(q *sim.Proc) // bound to recv
}

// arrive runs when the transmission delay has passed (one slot after a
// store deposit): drop the message at a down receiver, else start its
// receive overhead and handler on the callback tier (inline messages)
// or in a fresh process.
func (d *delivery) arrive() {
	n := d.n
	if d.traced {
		n.tracer.Span("net", d.tid, d.c.traceKind(), d.sentAt, n.env.Now(), route(d.from, d.to))
	}
	if n.downCheck != nil && n.downCheck(d.to) {
		n.dropped++
		if d.traced {
			n.tracer.Instant("net", d.tid, trace.NetDropDown, n.env.Now(), route(d.from, d.to))
		}
		d.free()
		return
	}
	if ep := &n.endpoints[d.to]; ep.inline != nil && ep.inline(d.msg) {
		// Callback-tier delivery: the extra hop takes the calendar
		// slot the receive process used to start in, then the receive
		// overhead and the handler run without a process.
		n.env.After(0, d.receiveFn)
		return
	}
	n.env.Spawn("recv", d.recvProc)
}

// receive charges the receive overhead of an inline message.
func (d *delivery) receive() {
	n, cpu := d.n, d.n.endpoints[d.to].cpu
	if n.transport != nil {
		n.storeHold(cpu, sim.Continuation{}, d.c, d.handleFn)
		return
	}
	cpu.RequestExec(n.sendInstr(d.c), d.handleFn)
}

// handle runs an inline message's handler in kernel context.
func (d *delivery) handle() {
	ep, from, msg := &d.n.endpoints[d.to], d.from, d.msg
	d.free()
	ep.handler(nil, from, msg)
}

// recv is the receive process of a message whose handler blocks.
func (d *delivery) recv(q *sim.Proc) {
	n, ep, from, c, msg := d.n, &d.n.endpoints[d.to], d.from, d.c, d.msg
	d.free()
	if n.transport != nil {
		n.storeHold(ep.cpu, q.Continuation(), c, nil)
		q.Park()
	} else {
		ep.cpu.Exec(q, n.sendInstr(c))
	}
	ep.handler(q, from, msg)
}

// free returns the record to the network's pool.
func (d *delivery) free() {
	d.msg = nil
	d.n.deliveries.Put(d)
}

// ShortSent returns the number of short messages sent since ResetStats.
func (n *Network) ShortSent() int64 { return n.shortSent }

// LongSent returns the number of long messages sent since ResetStats.
func (n *Network) LongSent() int64 { return n.longSent }

// Dropped returns the number of messages lost in transit or dropped at
// a down receiver since ResetStats.
func (n *Network) Dropped() int64 { return n.dropped }

// ResetStats discards message counters.
func (n *Network) ResetStats() {
	n.shortSent = 0
	n.longSent = 0
	n.dropped = 0
}
