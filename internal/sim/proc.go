//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

// stopSignal is panicked inside a process to unwind it during Stop.
type stopSignal struct{}

// Proc is a simulation process. All blocking primitives must be called
// by the process itself (from the function passed to Spawn).
//
// Each Spawn creates a fresh Proc record, even though the coroutine it
// runs on is pooled: wake events still queued for a finished process
// point at its own record, which stays done, so they can never start
// the next process on the same worker early.
type Proc struct {
	env     *Env
	name    string
	fn      func(p *Proc)
	w       *worker // coroutine running the process; nil once done
	gen     int64   // incremented at every resume; stale wake events are dropped
	done    bool
	stopped bool  // set by Stop: the next resume unwinds the process
	traceID int64 // transaction id for the trace layer; 0 outside transactions

	livePrev, liveNext *Proc // links in Env.live while the process is live
}

// procList is the intrusive, doubly linked list of live processes in
// spawn order, linked through Proc.livePrev/liveNext.
type procList struct {
	head, tail *Proc
	n          int
}

// push appends p at the tail.
func (l *procList) push(p *Proc) {
	p.livePrev, p.liveNext = l.tail, nil
	if l.tail != nil {
		l.tail.liveNext = p
	} else {
		l.head = p
	}
	l.tail = p
	l.n++
}

// remove unlinks p; it does nothing if p is not on the list.
func (l *procList) remove(p *Proc) {
	if p.livePrev != nil {
		p.livePrev.liveNext = p.liveNext
	} else if l.head == p {
		l.head = p.liveNext
	} else {
		return
	}
	if p.liveNext != nil {
		p.liveNext.livePrev = p.livePrev
	} else {
		l.tail = p.livePrev
	}
	p.livePrev, p.liveNext = nil, nil
	l.n--
}

// worker is a runtime coroutine that runs processes one after another.
// The kernel switches into it with next and the process switches back
// with yield, directly and without the goroutine scheduler. A worker
// whose process finished waits in Env.idle for the next Spawn.
type worker struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	p     *Proc // process to run; nil when Stop retires the worker
}

// loop is the body of a worker's coroutine.
func (w *worker) loop(yield func(struct{}) bool) {
	w.yield = yield
	for w.p != nil {
		w.p.run()
	}
}

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Done reports whether the process function has returned.
func (p *Proc) Done() bool { return p.done }

// SetTraceID tags the process with the transaction id it is currently
// executing, so device models can attribute trace spans to it. Zero
// means no transaction context.
func (p *Proc) SetTraceID(id int64) { p.traceID = id }

// TraceID returns the transaction id set by SetTraceID, or zero.
func (p *Proc) TraceID() int64 { return p.traceID }

// Spawn creates a new process executing fn and schedules it to start at
// the current simulated time.
func (e *Env) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{env: e, name: name, fn: fn, w: e.worker()}
	p.w.p = p
	e.spawns++
	e.live.push(p)
	e.schedule(e.now, p, nil)
	return p
}

// worker takes the most recently idled worker, or starts a new one.
// The pool never holds more workers than the peak number of live
// processes.
func (e *Env) worker() *worker {
	if n := len(e.idle); n > 0 {
		w := e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
		return w
	}
	w := new(worker)
	w.next, w.stop = iter.Pull(w.loop)
	return w
}

// run executes the process on its worker, then returns the worker to
// the idle pool and suspends it until it is handed another process.
// A panic is recovered here, not left to iter.Pull, so it reaches Run
// as an error and the worker stays usable.
func (p *Proc) run() {
	p.gen++
	if !p.stopped {
		func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(stopSignal); !ok {
						p.env.panicked = fmt.Sprintf("process %q: %v", p.name, r)
					}
				}
			}()
			p.fn(p)
		}()
	}
	e := p.env
	p.done = true
	e.live.remove(p)
	w := p.w
	p.w, w.p = nil, nil
	e.idle = append(e.idle, w)
	w.yield(struct{}{})
}

// resume switches from the kernel into the process until it parks or
// finishes.
func (p *Proc) resume() {
	p.w.next()
}

// park switches from the process back to the kernel until the kernel
// resumes it.
func (p *Proc) park() {
	p.env.parks++
	p.w.yield(struct{}{})
	p.gen++
	if p.stopped {
		panic(stopSignal{})
	}
}

// Park blocks the calling process until another process or a kernel
// callback calls Unpark on it. It is the building block for condition
// waits (lock queues, page-transfer waits).
func (p *Proc) Park() { p.park() }

// Unpark schedules p to resume at the current simulated time. It must
// only be called for a process that is parked (or about to park within
// the same instant); the kernel delivers the resume after the caller
// yields, so "unpark then park" races cannot occur within one instant
// as long as the parking process parks before yielding control.
func (p *Proc) Unpark() {
	p.env.schedule(p.env.now, p, nil)
}

// UnparkAfter schedules p to resume after delay d.
func (p *Proc) UnparkAfter(d Time) {
	p.env.schedule(p.env.now+d, p, nil)
}

// Wait suspends the calling process for duration d of simulated time.
func (p *Proc) Wait(d Time) {
	p.env.schedule(p.env.now+d, p, nil)
	p.park()
}

// Continuation is a handle for resuming a parked process from a
// callback-tier service chain acting on its behalf. It pins the
// process's generation at creation time: if the process is killed and
// moves on while the chain is still in flight, the chain's final
// resume is dropped as stale instead of waking the process in whatever
// it is doing now — but the chain's bookkeeping callbacks still run,
// so stations are released exactly once.
type Continuation struct {
	p   *Proc
	gen int64
}

// Continuation captures the calling process's current generation. Take
// it before parking, then hand it to the service chain.
func (p *Proc) Continuation() Continuation {
	return Continuation{p: p, gen: p.gen}
}

// Proc returns the process the continuation belongs to.
func (c Continuation) Proc() *Proc { return c.p }

// TraceID returns the pinned process's current transaction id, or zero
// for the zero continuation (a chain with no process to resume).
func (c Continuation) TraceID() int64 {
	if c.p == nil {
		return 0
	}
	return c.p.traceID
}

// Detach returns a continuation that carries c's trace id but never
// resumes the process: for a step of a callback-tier chain that acts on
// the process's behalf while the process waits for a later step.
func (c Continuation) Detach() Continuation {
	c.gen = -1
	return c
}

// ResumeAfter schedules a combined event after delay d: fn runs in
// kernel context and then the process resumes — both within the same
// calendar slot, exactly where a plain Wait(d) resume would have
// fired. It is the terminator of callback-tier service chains: the
// final completion does its bookkeeping in fn and hands control back
// to the parked process without an extra calendar hop.
func (c Continuation) ResumeAfter(d Time, fn func()) {
	env := c.p.env
	ev := env.schedule(env.now+d, c.p, fn)
	ev.gen = c.gen
}

// Stop terminates all live processes by unwinding them in spawn order,
// then retires the idle workers, so that no goroutines leak after a
// run. The environment must not be used again.
func (e *Env) Stop() {
	for e.live.head != nil {
		p := e.live.head
		e.live.remove(p)
		p.stopped = true
		p.resume()
	}
	for _, w := range e.idle {
		w.stop()
	}
	e.idle = nil
	e.events = calendar{}
}
