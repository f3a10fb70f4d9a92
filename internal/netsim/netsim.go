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
// the receive CPU overhead was charged. It runs in kernel context and
// must not block: work that takes time goes on as a callback-tier chain
// (cpusrv.CPU.Hold, cpusrv.CPU.ExecFn, Network.Post).
type Handler func(from int, msg any)

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
// after the transmission delay the receiver is charged the receive
// overhead and then runs its handler, both on the callback tier.
//
// Send is subject to fault injection: the message is lost with
// Params.LossProb, and it is dropped when the receiver is down at
// delivery time. Callers must tolerate loss (timeout and retry).
func (n *Network) Send(p *sim.Proc, from, to int, c Class, msg any) {
	if n.Post(p.Continuation(), from, to, c, msg, false, nil) {
		p.Park()
	}
}

// SendReliable transmits a message that a real system would retransmit
// until acknowledged (lock releases, recovery traffic): it is exempt
// from random loss, but still dropped when the receiver is down.
func (n *Network) SendReliable(p *sim.Proc, from, to int, c Class, msg any) {
	if n.Post(p.Continuation(), from, to, c, msg, true, nil) {
		p.Park()
	}
}

// Post is Send (SendReliable when reliable is set) on the callback
// tier: the send overhead is charged at the sender, the message goes in
// transit when the burst completes, then done (if non-nil) runs and
// cont's process (if any) resumes, both in the completion slot. Spans
// are traced for cont's process. Post reports whether the burst is
// pending, that is whether a process that passed its continuation must
// park.
func (n *Network) Post(cont sim.Continuation, from, to int, c Class, msg any, reliable bool, done func()) bool {
	if c == Long {
		n.longSent++
	} else {
		n.shortSent++
	}
	d := n.deliveries.Get()
	if d == nil {
		d = &delivery{n: n}
		d.sentFn = d.sent
		d.arriveFn = d.arrive
		d.receiveFn = d.receive
		d.handleFn = d.handle
	}
	d.from, d.to, d.c, d.msg, d.cont, d.done = from, to, c, msg, cont, done
	cpu := n.endpoints[from].cpu
	if n.transport != nil {
		// Store-based exchange rides on reliable shared memory: no
		// random loss and no wire delay; the store's queueing is the
		// only serialization. The sender deposits the message with its
		// CPU held, and the receiver reads it out the same way one
		// slot later; a down receiver still never picks it up.
		n.storeHold(cpu, cont, c, d.sentFn)
		return true
	}
	d.lost = !reliable && n.lossSrc != nil && n.params.LossProb > 0 && n.lossSrc.Float64() < n.params.LossProb
	return cpu.ExecFn(cont, n.sendInstr(c), d.sentFn)
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

// delivery is one message from the start of its send to the start of
// its handler: the send overhead, then the wire or the store. Records
// are pooled on the network and their steps are method values bound
// once, so a delivery allocates nothing.
type delivery struct {
	n      *Network
	from   int
	to     int
	c      Class
	msg    any
	cont   sim.Continuation // sender's process, resumed once the message is sent
	done   func()           // sender's callback-tier continuation
	lost   bool
	traced bool
	sentAt sim.Time
	tid    int64

	sentFn    func() // bound to sent
	arriveFn  func() // bound to arrive
	receiveFn func() // bound to receive
	handleFn  func() // bound to handle
}

// sent runs when the send overhead has been charged: a lost message
// is dropped, any other goes in transit and arrives after the
// transmission delay (one slot after a store deposit), traced as a wire
// span. Then the sender's continuation runs.
func (d *delivery) sent() {
	n, done := d.n, d.done
	if d.lost {
		n.dropped++
		if n.tracer.Enabled() {
			n.tracer.Instant("net", d.cont.TraceID(), trace.NetDrop, n.env.Now(), route(d.from, d.to))
		}
		d.free()
	} else {
		var delay time.Duration
		if d.traced = n.transport == nil && n.tracer.Enabled(); d.traced {
			d.sentAt, d.tid = n.env.Now(), d.cont.TraceID()
		}
		if n.transport == nil {
			delay = n.transit(d.c)
		}
		n.env.After(delay, d.arriveFn)
	}
	if done != nil {
		done()
	}
}

// arrive runs when the transmission delay has passed (one slot after a
// store deposit): drop the message at a down receiver, else start its
// receive overhead one calendar slot later: the hop queues the receive
// behind the events already due at this instant.
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
	n.env.After(0, d.receiveFn)
}

// receive charges the receive overhead at the receiver's CPU.
func (d *delivery) receive() {
	n, cpu := d.n, d.n.endpoints[d.to].cpu
	if n.transport != nil {
		n.storeHold(cpu, sim.Continuation{}, d.c, d.handleFn)
		return
	}
	cpu.ExecFn(sim.Continuation{}, n.sendInstr(d.c), d.handleFn)
}

// handle runs the receiver's handler in kernel context.
func (d *delivery) handle() {
	ep, from, msg := &d.n.endpoints[d.to], d.from, d.msg
	d.free()
	ep.handler(from, msg)
}

// free returns the record to the network's pool.
func (d *delivery) free() {
	d.msg, d.cont, d.done, d.lost = nil, sim.Continuation{}, nil, false
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
