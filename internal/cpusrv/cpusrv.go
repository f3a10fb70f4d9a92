// Package cpusrv models the CPU complex of a processing node: a set of
// identical processors served FCFS, with service demands expressed in
// instructions (Table 4.1 gives 4 processors of 10 MIPS per node).
package cpusrv

import (
	"time"

	"gemsim/internal/attrib"
	"gemsim/internal/sim"
	"gemsim/internal/trace"
)

// CPU is the processor pool of one node.
type CPU struct {
	res  *sim.Resource
	mips float64

	instructions float64
	tracer       *trace.Tracer

	holds sim.FreeList[holdOp] // idle Hold records
}

// New creates a CPU pool with the given number of processors and MIPS
// rating per processor.
func New(env *sim.Env, name string, processors int, mips float64) *CPU {
	if processors <= 0 || mips <= 0 {
		panic("cpusrv: processors and MIPS must be positive")
	}
	return &CPU{res: sim.NewResource(env, name, processors), mips: mips}
}

// ServiceTime converts an instruction count to processing time on one
// processor.
func (c *CPU) ServiceTime(instructions float64) time.Duration {
	return time.Duration(instructions / c.mips * float64(time.Microsecond))
}

// SetTracer attaches a span tracer (nil disables tracing).
func (c *CPU) SetTracer(t *trace.Tracer) { c.tracer = t }

// Exec runs the given number of instructions on one processor,
// queueing FCFS if all processors are busy.
func (c *CPU) Exec(p *sim.Proc, instructions float64) {
	if c.ExecFn(p.Continuation(), instructions, nil) {
		p.Park()
	}
}

// ExecFn runs instructions on one processor on the callback tier: done
// (if non-nil) runs in kernel context when the burst completes, then
// cont's process (if any) resumes, both in the completion's calendar
// slot. A non-positive demand runs done at once. ExecFn reports whether
// the burst is pending, that is whether a process that passed its
// continuation must park. Used for message sends and handlers that need
// no process.
func (c *CPU) ExecFn(cont sim.Continuation, instructions float64, done func()) bool {
	if instructions <= 0 {
		if done != nil {
			done()
		}
		return false
	}
	c.instructions += instructions
	if c.tracer.Enabled() {
		env := c.res.Env()
		start, inner := env.Now(), done
		done = func() {
			c.tracer.Span(c.res.Name(), cont.TraceID(), trace.CPUExec, start, env.Now(), "")
			if inner != nil {
				inner()
			}
		}
	}
	c.res.RequestResume(cont, c.ServiceTime(instructions), done)
	return true
}

// Device is the station side of a CPU-held access (a GEM access kind,
// the lock engine): each cycle queues for Res and holds it for Svc.
// Count, when set, is bumped as each cycle is issued. Span, when set,
// runs at the composite's completion with the trace id and start of its
// first cycle and the number of cycles, so the device emits its own
// trace span.
type Device struct {
	Res   *sim.Resource
	Svc   time.Duration
	Count *int64
	Span  func(tid int64, start sim.Time, n int)
}

// Hold runs one synchronous device access during which the processor
// stays busy: claim a processor (queueing FCFS), charge instr
// instructions on it (none when non-positive), run n cycles at dev's
// station back to back (one when n < 1), then release the processor,
// run done (if non-nil) and resume cont's process (if any) — the last
// three in the final cycle's completion slot. A process parks right
// after the call; a callback chain passes the zero continuation.
func (c *CPU) Hold(cont sim.Continuation, instr float64, dev *Device, n int, done func()) {
	op := c.holds.Get()
	if op == nil {
		op = &holdOp{c: c}
		op.grantFn, op.issueFn, op.finishFn = op.grant, op.issue, op.finish
	}
	op.cont, op.instr, op.dev, op.n, op.left, op.done = cont, instr, dev, n, n, done
	c.res.AcquireFn(op.grantFn)
}

// holdOp is one in-flight Hold composite. Records are pooled per CPU
// and their steps are method values bound once, so a composite
// allocates nothing.
type holdOp struct {
	c     *CPU
	cont  sim.Continuation
	instr float64
	dev   *Device
	n     int // cycles in the composite
	left  int // cycles still to issue
	start sim.Time
	tid   int64
	done  func()

	grantFn, issueFn, finishFn func() // bound to grant, issue, finish
}

// grant charges the held instruction burst once a processor is free.
func (op *holdOp) grant() {
	if op.instr <= 0 {
		op.issue()
		return
	}
	op.c.instructions += op.instr
	op.c.res.Env().After(op.c.ServiceTime(op.instr), op.issueFn)
}

// issue queues the next cycle at the device; the last cycle's
// completion finishes the composite.
func (op *holdOp) issue() {
	d := op.dev
	if d.Count != nil {
		*d.Count++
	}
	if op.left == op.n {
		op.start, op.tid = d.Res.Env().Now(), op.cont.TraceID()
	}
	op.left--
	if op.left <= 0 {
		d.Res.RequestResume(op.cont, d.Svc, op.finishFn)
		return
	}
	d.Res.Request(d.Svc, op.issueFn)
}

// finish runs after the device released its server for the last time:
// the record goes back to the pool first (the completion event holds
// its own copy of the continuation), then the span, the processor
// release and done follow.
func (op *holdOp) finish() {
	c, dev, done := op.c, op.dev, op.done
	tid, start, n := op.tid, op.start, op.n
	op.cont, op.dev, op.done = sim.Continuation{}, nil, nil
	c.holds.Put(op)
	if dev.Span != nil {
		dev.Span(tid, start, n)
	}
	c.res.Release()
	if done != nil {
		done()
	}
}

// Utilization returns mean processor utilization since the last
// ResetStats.
func (c *CPU) Utilization() float64 { return c.res.Utilization() }

// BusySeconds returns accumulated processor-busy seconds.
func (c *CPU) BusySeconds() float64 { return c.res.BusySeconds() }

// MeanWait returns the mean CPU queueing delay per request.
func (c *CPU) MeanWait() time.Duration { return c.res.MeanWait() }

// Instructions returns the total instructions charged since the last
// ResetStats.
func (c *CPU) Instructions() float64 { return c.instructions }

// Counters returns the processor pool's raw station counters for
// operational-law validation. Bursts run through Exec/ExecFn
// carry tracked service demand; Hold composites (GEM accesses) do not,
// so SvcN < Requests under GEM coupling and the utilization law is
// gated off there.
func (c *CPU) Counters() attrib.StationCounters { return c.res.Counters() }

// ResetStats discards accumulated statistics.
func (c *CPU) ResetStats() {
	c.res.ResetStats()
	c.instructions = 0
}
