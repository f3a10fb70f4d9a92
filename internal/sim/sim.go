// Package sim implements a discrete event simulation kernel in the
// style of DeNet [Li89], the simulation language used by the original
// study, with a two-tier execution model.
//
// Tier 1 — callback events — runs in kernel context: a scheduled
// function fires at its calendar slot and must not block. Memoryless
// work (service completions, queue hand-offs, message deliveries) lives
// here; it costs one pooled calendar entry and a function call. The
// entry points are Env.After/Env.At, Timer, and the callback side of
// Resource (AcquireFn, Request, RequestResume).
//
// Tier 2 — processes — are runtime coroutines (iter.Pull) for model
// code that genuinely blocks with state (transaction logic, recovery
// sequences). The kernel resumes a process by switching straight into
// its coroutine and the process parks by switching straight back, so at
// most one of them runs at any instant: model code needs no locking and
// runs deterministically. Coroutines are pooled: a finished process
// leaves its coroutine idle in the Env for the next Spawn.
//
// Both tiers share one event calendar ordered by (at, seq) with ties
// broken by insertion order, so mixing them preserves determinism. A
// single event may carry both a callback and a process resume: the
// callback runs first, then the process resumes — within the same
// calendar slot. Service chains use this to do their completion
// bookkeeping and unpark the waiting transaction process exactly once,
// instead of bouncing through helper processes.
//
// The process-tier primitives are the classic DES set: Spawn to create
// a process, Proc.Wait to let simulated time pass, Resource for
// k-server FCFS queueing stations with utilization accounting,
// Semaphore for counted admission control, Mailbox for process
// communication, and Park/Unpark for building condition-style waits
// (lock tables, page transfers).
package sim

import (
	"fmt"
	"sort"
	"time"
)

// Time is a point in simulated time, measured from the start of the run.
type Time = time.Duration

// event kinds. Hot Tier-1 paths (service completions, queue hand-offs,
// timer fires) are encoded as kinds on the pooled event record instead
// of per-call closures, so a steady-state service cycle allocates
// nothing: the record carries the target Resource or Timer directly
// and dispatch switches on the kind.
const (
	evFn       uint8 = iota // run fn, then resume proc (the general event)
	evComplete              // service completion: res.Release(), then fn, then proc
	evHandoff               // server hand-off: serve the head of res.handq
	evTimer                 // timer fire: run timer.fn if still armed at gen
)

// event is a scheduled occurrence: run a kernel-context callback (which
// must not block), resume a parked process, or both — the callback
// first, then the resume, within one calendar slot.
type event struct {
	at    Time
	seq   int64
	proc  *Proc
	gen   int64 // proc generation (or timer generation for evTimer)
	fn    func()
	res   *Resource // evComplete / evHandoff target
	timer *Timer    // evTimer target
	kind  uint8
}

// Env is a simulation environment: an event calendar, a clock and the
// set of live processes. An Env must be used from a single goroutine
// (the one calling Run); model code runs inside processes spawned on it.
type Env struct {
	now        Time
	seq        int64
	events     calendar
	free       []*event // recycled event records
	dispatched int64
	live       map[*Proc]struct{}
	idle       []*worker // process coroutines waiting for a Spawn
	panicked   any
}

// NewEnv returns an empty simulation environment at time zero.
func NewEnv() *Env {
	return &Env{
		live: make(map[*Proc]struct{}),
	}
}

// Now returns the current simulated time.
func (e *Env) Now() Time { return e.now }

// Pending reports the number of scheduled events.
func (e *Env) Pending() int { return e.events.total() }

// Dispatched reports the total number of events dispatched since the
// environment was created. It is a deterministic kernel-work measure:
// identical runs dispatch identical event counts.
func (e *Env) Dispatched() int64 { return e.dispatched }

// LiveCount reports the number of live (spawned, not yet finished)
// processes.
func (e *Env) LiveCount() int { return len(e.live) }

// Stalled reports whether the simulation can make no further progress
// while processes are still alive: the event calendar is empty but live
// processes remain, all of them parked with nothing scheduled to wake
// them (e.g. waiters on a lock that is never released).
func (e *Env) Stalled() bool {
	return e.events.total() == 0 && len(e.live) > 0
}

// LiveNames returns the names of live processes, deduplicated with
// counts ("txn x12") and sorted, for stall diagnostics. At most max
// distinct names are returned (0 means all).
func (e *Env) LiveNames(max int) []string {
	counts := make(map[string]int)
	for p := range e.live {
		counts[p.name]++
	}
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	if max > 0 && len(names) > max {
		names = names[:max]
	}
	for i, n := range names {
		if c := counts[n]; c > 1 {
			names[i] = fmt.Sprintf("%s x%d", n, c)
		}
	}
	return names
}

// schedule enqueues an event at absolute time at (>= now).
func (e *Env) schedule(at Time, p *Proc, fn func()) *event {
	if at < e.now {
		at = e.now
	}
	e.seq++
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.at, ev.seq, ev.proc, ev.gen, ev.fn = at, e.seq, p, 0, fn
	} else {
		ev = &event{at: at, seq: e.seq, proc: p, fn: fn}
	}
	if p != nil {
		ev.gen = p.gen
	}
	e.events.insert(ev)
	return ev
}

// freeEventSlack bounds the event pool above the pending-event count:
// the pool may hold one spare record per pending event plus this much
// slack, so steady state never allocates while a one-off burst does
// not pin its peak in memory forever.
const freeEventSlack = 4096

// recycle returns a dispatched event record to the free list.
func (e *Env) recycle(ev *event) {
	if len(e.free) >= e.events.total()+freeEventSlack {
		return
	}
	ev.proc = nil
	ev.fn = nil
	ev.res = nil
	ev.timer = nil
	ev.kind = evFn
	e.free = append(e.free, ev)
}

// After schedules fn to run in kernel context after delay d. fn must not
// call blocking process primitives.
func (e *Env) After(d Time, fn func()) {
	e.schedule(e.now+d, nil, fn)
}

// At schedules fn to run in kernel context at absolute time at (clamped
// to now when in the past). fn must not call blocking process
// primitives.
func (e *Env) At(at Time, fn func()) {
	e.schedule(at, nil, fn)
}

// Run advances the simulation until the event calendar is empty or the
// clock would pass until. Events scheduled exactly at until still run.
// It returns an error if a process panicked; the error is reported
// once, and the environment stays usable.
func (e *Env) Run(until Time) error {
	if err := e.drain(until, true); err != nil {
		return err
	}
	if e.now < until {
		e.now = until
	}
	return nil
}

// RunUntilIdle advances the simulation until no events remain.
func (e *Env) RunUntilIdle() error {
	return e.drain(0, false)
}

// drain is the single event-extraction site shared by Run and
// RunUntilIdle: pop the minimum (at, seq) event, advance the clock,
// dispatch, recycle. When bounded, events past until stay queued.
func (e *Env) drain(until Time, bounded bool) error {
	for {
		ev := e.events.pop(until, bounded)
		if ev == nil {
			return nil
		}
		e.now = ev.at
		e.dispatched++
		e.dispatch(ev)
		e.recycle(ev)
		if e.panicked != nil {
			err := fmt.Errorf("sim: %v", e.panicked)
			e.panicked = nil
			return err
		}
	}
}

// dispatch fires one event: the kernel callback runs first (if any),
// then control is handed to the process (if any and still at the
// scheduled generation) until it yields. Running both halves in one
// slot lets a service chain's final completion release its station and
// resume the waiting process without an extra calendar hop.
func (e *Env) dispatch(ev *event) {
	switch ev.kind {
	case evComplete:
		// Service completion: release before the user callback, the
		// order the old completion closures used.
		ev.res.Release()
	case evHandoff:
		ev.res.handoff()
		return
	case evTimer:
		t := ev.timer
		if t.armed && t.gen == ev.gen {
			t.armed = false
			t.fn()
		}
		return
	}
	if ev.fn != nil {
		ev.fn()
	}
	if ev.proc != nil {
		if ev.proc.done || ev.gen != ev.proc.gen {
			return // stale wake: the process moved on since this was scheduled
		}
		ev.proc.resume()
	}
}
