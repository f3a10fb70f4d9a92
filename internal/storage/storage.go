// Package storage models the external storage devices of the shared
// disk complex: disk groups (controller + disk servers + page transfer
// delay), sequential log disks, and shared disk caches in their volatile
// and non-volatile variants, managed LRU after the commercial (IBM)
// disk caches referenced by the paper. A cache is a buffer.Pool whose
// frames are never fixed, so its replacement is plain LRU; a volatile
// cache only serves read hits, a non-volatile one also absorbs writes
// and destages dirty victims to disk in the background.
//
// Because the architecture is "shared disk", every disk group and its
// cache is a single system-wide instance reachable by all nodes; the
// shared cache therefore acts as a global database buffer.
package storage

import (
	"time"

	"gemsim/internal/attrib"
	"gemsim/internal/buffer"
	"gemsim/internal/model"
	"gemsim/internal/sim"
	"gemsim/internal/stats"
	"gemsim/internal/trace"
)

// Params configures one disk group.
type Params struct {
	// Disks is the number of parallel disk servers in the group.
	Disks int
	// Controllers is the number of controller servers.
	Controllers int
	// DiskTime is the mean disk service time (15 ms for database
	// disks, 5 ms for sequentially accessed log disks in Table 4.1).
	DiskTime time.Duration
	// ControllerTime is the mean controller service time (1 ms).
	ControllerTime time.Duration
	// TransferTime is the page transmission delay between main memory
	// and the controller (0.4 ms).
	TransferTime time.Duration
	// Cache, if non-nil, attaches a shared disk cache to the group.
	Cache *CacheParams
}

// CacheParams configures a shared disk cache.
type CacheParams struct {
	// SizePages is the cache capacity in pages.
	SizePages int
	// Volatile selects a volatile cache (read hits only); otherwise
	// the cache is non-volatile and absorbs writes with asynchronous
	// destage to disk.
	Volatile bool
}

// DefaultDBParams returns Table 4.1 database disk settings with the
// given number of disks.
func DefaultDBParams(disks int) Params {
	return Params{
		Disks:          disks,
		Controllers:    maxInt(1, disks/4),
		DiskTime:       15 * time.Millisecond,
		ControllerTime: time.Millisecond,
		TransferTime:   400 * time.Microsecond,
	}
}

// DefaultLogParams returns Table 4.1 log disk settings.
func DefaultLogParams() Params {
	return Params{
		Disks:          1,
		Controllers:    1,
		DiskTime:       5 * time.Millisecond,
		ControllerTime: time.Millisecond,
		TransferTime:   400 * time.Microsecond,
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Group is one shared disk group, optionally fronted by a shared cache.
type Group struct {
	name        string
	env         *sim.Env
	params      Params
	controllers *sim.Resource
	disks       *sim.Resource
	cache       *buffer.Pool
	// volatile marks a cache that loses its content on power failure
	// and therefore cannot absorb writes.
	volatile bool

	// stallUntil freezes the group until the given time (fault
	// injection): requests arriving earlier first wait it out.
	stallUntil sim.Time

	reads       int64
	writes      int64
	readHits    int64
	destages    int64
	readLatency stats.Series
	tracer      *trace.Tracer

	ioOps sim.FreeList[ioOp] // idle device-chain and destage records
}

// NewGroup creates a disk group.
func NewGroup(env *sim.Env, name string, params Params) *Group {
	if params.Disks <= 0 {
		params.Disks = 1
	}
	if params.Controllers <= 0 {
		params.Controllers = 1
	}
	g := &Group{
		name:        name,
		env:         env,
		params:      params,
		controllers: sim.NewResource(env, name+"/ctl", params.Controllers),
		disks:       sim.NewResource(env, name+"/disk", params.Disks),
	}
	if params.Cache != nil && params.Cache.SizePages > 0 {
		g.cache = buffer.NewPool(params.Cache.SizePages)
		g.volatile = params.Cache.Volatile
	}
	return g
}

// Name returns the group name.
func (g *Group) Name() string { return g.name }

// SetTracer attaches a span tracer (nil disables tracing).
func (g *Group) SetTracer(t *trace.Tracer) { g.tracer = t }

// Cache returns the attached shared disk cache, or nil.
func (g *Group) Cache() *buffer.Pool { return g.cache }

// StallFor freezes the group for d from now (fault injection: a
// controller hiccup or path failure). Requests issued while the stall
// is active wait until it clears before queueing for the devices.
func (g *Group) StallFor(d time.Duration) {
	if until := g.env.Now() + d; until > g.stallUntil {
		g.stallUntil = until
	}
}

// Access reads or writes one page through the group on the callback
// tier. The request issues at once, or when an active stall clears (a
// read's cache lookup happens then). done (if non-nil) runs in kernel
// context once the page has been transferred, told whether the cache
// served the request (a read hit, or a write a non-volatile cache
// absorbed); then cont's process (if any) resumes, in the same slot.
func (g *Group) Access(cont sim.Continuation, page model.PageID, write bool, done func(cached bool)) {
	op := g.newIO(cont, page, write, done)
	if now := g.env.Now(); now < g.stallUntil {
		g.env.After(g.stallUntil-now, op.issueFn)
		return
	}
	op.issue()
}

// ioOp is one in-flight Access chain (controller, disk unless the cache
// serves it, transfer) or cache destage (disk only). Records are pooled
// per group with their steps bound once, so a request allocates nothing.
type ioOp struct {
	g      *Group
	cont   sim.Continuation
	page   model.PageID
	start  sim.Time
	write  bool
	cached bool              // read hit or absorbed write: the disk is skipped
	done   func(cached bool) // runs after the transfer, before cont resumes

	issueFn, ctlFn, diskFn, finishFn, destageFn, cleanFn func() // bound once
}

// newIO takes a device-chain record for page from the pool.
func (g *Group) newIO(cont sim.Continuation, page model.PageID, write bool, done func(bool)) *ioOp {
	op := g.ioOps.Get()
	if op == nil {
		op = &ioOp{g: g}
		op.issueFn, op.ctlFn, op.diskFn, op.finishFn = op.issue, op.afterController, op.transfer, op.finish
		op.destageFn, op.cleanFn = op.destage, op.clean
	}
	op.cont, op.page, op.write, op.done = cont, page, write, done
	return op
}

// issue counts the request and queues it at the controllers, once any
// stall is over. A read looks the page up in the cache here, touching
// its LRU position; a non-volatile cache absorbs every write.
func (op *ioOp) issue() {
	g := op.g
	if op.write {
		g.writes++
		op.cached = g.cache != nil && !g.volatile
	} else {
		g.reads++
		op.cached = g.cache != nil && g.cache.Get(op.page) != nil
		if op.cached {
			g.readHits++
		}
	}
	op.start = g.env.Now()
	g.controllers.Request(g.params.ControllerTime, op.ctlFn)
}

// afterController moves the request on to the disk servers, or
// straight to the transfer when the cache serves it.
func (op *ioOp) afterController() {
	if op.cached {
		op.transfer()
		return
	}
	op.g.disks.Request(op.g.params.DiskTime, op.diskFn)
}

// transfer schedules the page transfer, whose event runs finish and
// then resumes the process, if there is one.
func (op *ioOp) transfer() {
	if op.cont.Proc() == nil {
		op.g.env.After(op.g.params.TransferTime, op.finishFn)
		return
	}
	op.cont.ResumeAfter(op.g.params.TransferTime, op.finishFn)
}

// finish does the request's cache and latency bookkeeping, recycles
// the record and runs done.
func (op *ioOp) finish() {
	g := op.g
	switch {
	case op.write && op.cached:
		g.insert(op.page, true)
	case !op.cached && g.cache != nil:
		// A read miss fills the cache; a write through a volatile
		// cache keeps the copy readable.
		g.insert(op.page, false)
	}
	// Cache hits are their own events, so timeline rows distinguish
	// them from disk accesses.
	kind, hitKind := trace.IORead, trace.IOReadHit
	if op.write {
		kind, hitKind = trace.IOWrite, trace.IOWriteHit
	} else {
		g.readLatency.AddDuration(g.env.Now() - op.start)
	}
	if g.tracer.Enabled() {
		if op.cached {
			kind = hitKind
		}
		g.tracer.Span(g.name, op.cont.TraceID(), kind, op.start, g.env.Now(), op.page.String())
	}
	done, cached := op.done, op.cached
	op.cont, op.done = sim.Continuation{}, nil
	g.ioOps.Put(op)
	if done != nil {
		done(cached)
	}
}

// insert adds a page to the cache. A dirty LRU victim is destaged in
// the background (the cache keeps enough headroom that requesters never
// wait for destage, matching commercial write-behind caches): its disk
// write starts in the next slot.
func (g *Group) insert(page model.PageID, dirty bool) {
	if _, victim, evicted := g.cache.Insert(page, 0, dirty); evicted && victim.Dirty {
		g.destages++
		g.env.After(0, g.newIO(sim.Continuation{}, victim.Page, true, nil).destageFn)
	}
}

// destage queues a cache victim's write at the disk servers.
func (op *ioOp) destage() { op.g.disks.Request(op.g.params.DiskTime, op.cleanFn) }

// clean ends a destage: the cache entry is cleaned, if the page is
// cached again by then, and the record recycled.
func (op *ioOp) clean() {
	if f := op.g.cache.Peek(op.page); f != nil {
		f.Dirty = false
	}
	op.g.ioOps.Put(op)
}

// DiskUtilization returns the utilization of the disk servers.
func (g *Group) DiskUtilization() float64 { return g.disks.Utilization() }

// DiskBusySeconds returns accumulated disk-server busy seconds since
// the last ResetStats, for windowed utilization sampling.
func (g *Group) DiskBusySeconds() float64 { return g.disks.BusySeconds() }

// Disks returns the number of disk servers in the group.
func (g *Group) Disks() int { return g.params.Disks }

// DiskCounters returns the disk servers' raw station counters for
// operational-law validation.
func (g *Group) DiskCounters() attrib.StationCounters { return g.disks.Counters() }

// ServiceTime returns the deterministic device service demand of one
// read or write (controller, disk unless the cache served it — a read
// hit or an absorbed write —, transfer): the non-queueing part of its
// latency, for wait/service attribution.
func (g *Group) ServiceTime(cached bool) time.Duration {
	d := g.params.ControllerTime + g.params.TransferTime
	if !cached {
		d += g.params.DiskTime
	}
	return d
}

// Reads returns the number of page reads since the last ResetStats.
func (g *Group) Reads() int64 { return g.reads }

// Writes returns the number of page writes since the last ResetStats.
func (g *Group) Writes() int64 { return g.writes }

// ReadHitRatio returns the cache read hit ratio.
func (g *Group) ReadHitRatio() float64 {
	if g.reads == 0 {
		return 0
	}
	return float64(g.readHits) / float64(g.reads)
}

// Destages returns the number of background destage writes.
func (g *Group) Destages() int64 { return g.destages }

// MeanReadLatency returns the mean read latency including queueing.
func (g *Group) MeanReadLatency() time.Duration { return g.readLatency.MeanDuration() }

// ResetStats discards accumulated statistics.
func (g *Group) ResetStats() {
	g.controllers.ResetStats()
	g.disks.ResetStats()
	g.reads, g.writes, g.readHits, g.destages = 0, 0, 0, 0
	g.readLatency.Reset()
}
