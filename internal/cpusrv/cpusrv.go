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
	if instructions <= 0 {
		return
	}
	c.instructions += instructions
	if c.tracer.Enabled() {
		start := p.Env().Now()
		c.res.Use(p, c.ServiceTime(instructions))
		c.tracer.Span(c.res.Name(), p.TraceID(), trace.CPUExec, start, p.Env().Now(), "")
		return
	}
	c.res.Use(p, c.ServiceTime(instructions))
}

// RequestExec runs instructions on one processor on the callback tier:
// done fires in kernel context when the burst completes (immediately
// for a non-positive demand). Used for message handlers that need no
// process.
func (c *CPU) RequestExec(instructions float64, done func()) {
	if instructions <= 0 {
		done()
		return
	}
	c.instructions += instructions
	if c.tracer.Enabled() {
		env := c.res.Env()
		start := env.Now()
		inner := done
		done = func() {
			c.tracer.Span(c.res.Name(), 0, trace.CPUExec, start, env.Now(), "")
			inner()
		}
	}
	c.res.Request(c.ServiceTime(instructions), done)
}

// Acquire claims one processor without releasing it; used for
// synchronous GEM accesses during which the CPU stays busy.
func (c *CPU) Acquire(p *sim.Proc) { c.res.Acquire(p) }

// AcquireFn claims one processor on the callback tier: granted runs
// once a processor is free (synchronously if one is free now). Pair
// with Release from the continuation.
func (c *CPU) AcquireFn(granted func()) { c.res.AcquireFn(granted) }

// Release frees a processor claimed with Acquire or AcquireFn.
func (c *CPU) Release() { c.res.Release() }

// ExecHolding charges instructions while a processor is already held
// via Acquire.
func (c *CPU) ExecHolding(p *sim.Proc, instructions float64) {
	if instructions <= 0 {
		return
	}
	c.instructions += instructions
	p.Wait(c.ServiceTime(instructions))
}

// HoldFn charges instructions while a processor is already held — the
// callback-tier analog of ExecHolding. done fires after the service
// time elapses, or synchronously for a non-positive demand.
func (c *CPU) HoldFn(instructions float64, done func()) {
	if instructions <= 0 {
		done()
		return
	}
	c.instructions += instructions
	c.res.Env().After(c.ServiceTime(instructions), done)
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
// operational-law validation. Bursts run through Exec/RequestExec
// carry tracked service demand; hold-style Acquire/ExecHolding
// composites (GEM accesses) do not, so SvcN < Requests under GEM
// coupling and the utilization law is gated off there.
func (c *CPU) Counters() attrib.StationCounters { return c.res.Counters() }

// ResetStats discards accumulated statistics.
func (c *CPU) ResetStats() {
	c.res.ResetStats()
	c.instructions = 0
}
