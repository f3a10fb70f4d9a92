package sim

import "gemsim/internal/attrib"

// rwaiter is one queued request for a server: a grant callback
// (AcquireFn) or a full service cycle (Request / RequestResume / Use)
// described by plain fields so granting it allocates no closure. Both
// kinds share one FCFS queue in arrival order.
type rwaiter struct {
	grant func()
	at    Time // enqueue time, for waiting-time accounting

	// Service-cycle waiter: at hand-off, schedule the pooled
	// completion event at now+d (release + fn + resume of c, if any).
	svc bool
	d   Time
	fn  func()
	c   Continuation
}

// Resource is a k-server FCFS queueing station with utilization and
// waiting-time accounting. It models CPUs, disks, controllers and the
// GEM server.
//
// Every request queues in one FCFS line of callback-tier waiters:
// AcquireFn grants a server to a callback (paired with Release),
// Request / RequestResume run a full service cycle, and Use is the
// process-tier shorthand for RequestResume plus a park. A released
// server passes to the head waiter one calendar slot later.
type Resource struct {
	env     *Env
	name    string
	servers int
	busy    int
	queue   []rwaiter
	handq   []rwaiter // waiters popped at release, served by evHandoff events

	// Statistics, resettable at the end of a warm-up phase.
	statStart Time
	lastT     Time
	busyArea  float64 // server-busy time integral, in seconds
	requests  int64
	waitSum   Time

	// Queue-length integral and tracked service demand, for
	// operational-law self-validation (package attrib). qArea only
	// needs updating when the queue length changes, so the
	// uncontended fast paths stay untouched. svcSum covers cycles
	// whose demand is known up front (Use/Request/RequestResume);
	// hold-style AcquireFn/Release composites cannot be tracked.
	lastQT Time
	qArea  float64 // waiting-jobs time integral, in seconds
	svcSum Time
	svcN   int64
}

// NewResource creates a resource with the given number of parallel
// servers. servers must be positive.
func NewResource(env *Env, name string, servers int) *Resource {
	if servers <= 0 {
		panic("sim: resource " + name + " needs at least one server")
	}
	return &Resource{env: env, name: name, servers: servers}
}

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

// Env returns the environment the resource belongs to.
func (r *Resource) Env() *Env { return r.env }

// Servers returns the number of parallel servers.
func (r *Resource) Servers() int { return r.servers }

// Busy returns the number of currently occupied servers.
func (r *Resource) Busy() int { return r.busy }

// QueueLen returns the number of waiting requests.
func (r *Resource) QueueLen() int { return len(r.queue) }

// accumulate integrates server-busy time up to the current instant.
func (r *Resource) accumulate() {
	now := r.env.Now()
	r.busyArea += float64(r.busy) * (now - r.lastT).Seconds()
	r.lastT = now
}

// qAccumulate integrates waiting-queue length up to the current
// instant; called only when the queue length is about to change.
func (r *Resource) qAccumulate() {
	now := r.env.Now()
	r.qArea += float64(len(r.queue)) * (now - r.lastQT).Seconds()
	r.lastQT = now
}

// AcquireFn obtains one server on the callback tier: granted runs
// synchronously when a server is free, or in a later calendar slot (at
// the hand-off) after queueing FCFS. It must be paired with Release,
// called from the continuation once the composite operation completes.
func (r *Resource) AcquireFn(granted func()) {
	r.requests++
	if r.busy < r.servers {
		r.accumulate()
		r.busy++
		granted()
		return
	}
	r.qAccumulate()
	r.queue = append(r.queue, rwaiter{grant: granted, at: r.env.Now()})
}

// Release frees one server, handing it to the longest-waiting request
// if any.
func (r *Resource) Release() {
	if len(r.queue) > 0 {
		r.qAccumulate()
		w := r.queue[0]
		copy(r.queue, r.queue[1:])
		r.queue[len(r.queue)-1] = rwaiter{}
		r.queue = r.queue[:len(r.queue)-1]
		// The hand-off happens one calendar slot later: the waiter
		// parks on handq and a pooled evHandoff event serves it, so
		// the hop allocates nothing.
		r.handq = append(r.handq, w)
		ev := r.env.schedule(r.env.now, nil, nil)
		ev.kind = evHandoff
		ev.res = r
		return
	}
	r.accumulate()
	r.busy--
}

// handoff serves the oldest waiter parked on handq: account its wait,
// then either start its service cycle (pooled completion event) or run
// its grant continuation. Called by evHandoff dispatch; handq is FIFO
// and events dispatch in seq order, so waiters are served in the order
// their releases happened.
func (r *Resource) handoff() {
	w := r.handq[0]
	copy(r.handq, r.handq[1:])
	r.handq[len(r.handq)-1] = rwaiter{}
	r.handq = r.handq[:len(r.handq)-1]
	r.waitSum += r.env.now - w.at
	if w.svc {
		r.scheduleComplete(r.env.now+w.d, w.c, w.fn)
		return
	}
	w.grant()
}

// scheduleComplete schedules the pooled service-completion event:
// release the server, run fn (if any), resume the continuation's
// process (if any, and still at its pinned generation) — all in one
// calendar slot.
func (r *Resource) scheduleComplete(at Time, c Continuation, fn func()) {
	ev := r.env.schedule(at, c.p, fn)
	if c.p != nil {
		ev.gen = c.gen
	}
	ev.kind = evComplete
	ev.res = r
}

// Use acquires a server, holds it for service time d, and releases it.
// The process parks once for the whole cycle; the release happens in
// the completion event, in the same calendar slot the process resumes
// in.
func (r *Resource) Use(p *Proc, d Time) {
	r.RequestResume(p.Continuation(), d, nil)
	p.park()
}

// Request runs one full service cycle on the callback tier: acquire a
// server (queueing FCFS), hold it for service time d, release it, then
// run done in kernel context — release and done share the completion
// event's calendar slot. The whole cycle uses pooled events and the
// plain-field waiter record, so steady state allocates nothing.
func (r *Resource) Request(d Time, done func()) {
	r.RequestResume(Continuation{}, d, done)
}

// RequestResume runs one service cycle for a parked process: when the
// service completes, the server is released, fin (if non-nil) runs in
// kernel context, and the process resumes — all within one calendar
// slot. It is the terminator of a service chain executed on the
// process's behalf; with a zero continuation it is Request. If the
// process was killed and moved on while the request was queued, the
// cycle still completes and releases the server, but the final resume
// is dropped as stale.
func (r *Resource) RequestResume(c Continuation, d Time, fin func()) {
	r.requests++
	r.svcSum += d
	r.svcN++
	if r.busy < r.servers {
		r.accumulate()
		r.busy++
		r.scheduleComplete(r.env.now+d, c, fin)
		return
	}
	r.qAccumulate()
	r.queue = append(r.queue, rwaiter{at: r.env.Now(), svc: true, d: d, fn: fin, c: c})
}

// ResetStats discards accumulated statistics (typically at the end of a
// warm-up phase) while keeping current occupancy.
func (r *Resource) ResetStats() {
	r.statStart = r.env.Now()
	r.lastT = r.env.Now()
	r.busyArea = 0
	r.requests = 0
	r.waitSum = 0
	r.lastQT = r.env.Now()
	r.qArea = 0
	r.svcSum = 0
	r.svcN = 0
}

// Counters returns a raw statistics snapshot of the station since the
// last ResetStats, with the busy and queue integrals extended to the
// current instant, for the operational-law checks of package attrib.
func (r *Resource) Counters() attrib.StationCounters {
	now := r.env.Now()
	return attrib.StationCounters{
		Name:        r.name,
		Servers:     r.servers,
		Elapsed:     now - r.statStart,
		BusySeconds: r.busyArea + float64(r.busy)*(now-r.lastT).Seconds(),
		QSeconds:    r.qArea + float64(len(r.queue))*(now-r.lastQT).Seconds(),
		Requests:    r.requests,
		WaitSum:     r.waitSum,
		SvcSum:      r.svcSum,
		SvcN:        r.svcN,
	}
}

// Utilization returns the mean fraction of busy servers since the last
// ResetStats (or the start of the run).
func (r *Resource) Utilization() float64 {
	elapsed := (r.env.Now() - r.statStart).Seconds()
	if elapsed <= 0 {
		return 0
	}
	area := r.busyArea + float64(r.busy)*(r.env.Now()-r.lastT).Seconds()
	return area / (float64(r.servers) * elapsed)
}

// Requests returns the number of requests since the last ResetStats.
func (r *Resource) Requests() int64 { return r.requests }

// BusySeconds returns the accumulated server-busy time in seconds since
// the last ResetStats (summed over servers).
func (r *Resource) BusySeconds() float64 {
	return r.busyArea + float64(r.busy)*(r.env.Now()-r.lastT).Seconds()
}

// MeanWait returns the mean time spent queueing (zero for requests that
// found a free server) since the last ResetStats.
func (r *Resource) MeanWait() Time {
	if r.requests == 0 {
		return 0
	}
	return r.waitSum / Time(r.requests)
}
