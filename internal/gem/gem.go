// Package gem models the Global Extended Memory: a shared, non-volatile
// semiconductor store with a page interface (tens of microseconds per
// access) and an entry interface (a few microseconds per access,
// Compare&Swap semantics) through which all nodes implement the global
// lock table, exchange pages and keep whole database files resident.
//
// GEM accesses are synchronous: the accessing CPU stays busy for the
// queueing plus access time. The caller therefore holds its CPU server
// around the Access* calls; this package only models the GEM device
// itself (a single FCFS server by default, as in the paper).
package gem

import (
	"strconv"
	"time"

	"gemsim/internal/attrib"
	"gemsim/internal/model"
	"gemsim/internal/sim"
	"gemsim/internal/trace"
)

// Params configures the GEM device.
type Params struct {
	// Servers is the number of parallel GEM access ports (1 in the
	// paper's configuration).
	Servers int
	// PageAccess is the mean access time for a page transfer
	// (50 microseconds in Table 4.1).
	PageAccess time.Duration
	// EntryAccess is the mean access time for an entry read or
	// Compare&Swap write (2 microseconds in Table 4.1).
	EntryAccess time.Duration
}

// DefaultParams returns the Table 4.1 GEM settings.
func DefaultParams() Params {
	return Params{Servers: 1, PageAccess: 50 * time.Microsecond, EntryAccess: 2 * time.Microsecond}
}

// GEM is the shared memory device.
type GEM struct {
	params Params
	server *sim.Resource

	pageAccesses  int64
	entryAccesses int64

	resident map[model.FileID]bool
	tracer   *trace.Tracer

	chains sim.FreeList[entryChain] // idle batch records
}

// entryChain is one in-flight AccessEntriesFn batch: each completion
// starts the next access, the last one carries the combined
// release+fin+resume event. Records are pooled on the device and their
// step method value is bound once, so a batch allocates nothing.
type entryChain struct {
	g    *GEM
	c    sim.Continuation
	left int
	fin  func()
	step func() // bound to next
}

// New creates a GEM device in the given environment.
func New(env *sim.Env, params Params) *GEM {
	if params.Servers <= 0 {
		params.Servers = 1
	}
	return &GEM{
		params:   params,
		server:   sim.NewResource(env, "gem", params.Servers),
		resident: make(map[model.FileID]bool),
	}
}

// AllocateFile marks a database file as GEM-resident.
func (g *GEM) AllocateFile(id model.FileID) { g.resident[id] = true }

// Resident reports whether the file is GEM-resident.
func (g *GEM) Resident(id model.FileID) bool { return g.resident[id] }

// SetTracer attaches a span tracer (nil disables tracing). Page
// accesses and entry-access batches are traced; lone entry accesses are
// too short-lived to be worth an event each.
func (g *GEM) SetTracer(t *trace.Tracer) { g.tracer = t }

// AccessPage performs one synchronous page read or write. The calling
// process is delayed by queueing plus the page access time.
func (g *GEM) AccessPage(p *sim.Proc) {
	g.pageAccesses++
	if g.tracer.Enabled() {
		start := p.Env().Now()
		g.server.Use(p, g.params.PageAccess)
		g.tracer.Span(g.server.Name(), p.TraceID(), trace.GEMPage, start, p.Env().Now(), "")
		return
	}
	g.server.Use(p, g.params.PageAccess)
}

// AccessEntry performs one synchronous entry read or Compare&Swap
// write.
func (g *GEM) AccessEntry(p *sim.Proc) {
	g.entryAccesses++
	g.server.Use(p, g.params.EntryAccess)
}

// AccessEntries performs n consecutive entry accesses (e.g., read the
// lock entry, then write it back with Compare&Swap).
func (g *GEM) AccessEntries(p *sim.Proc, n int) {
	if g.tracer.Enabled() && n > 0 {
		start := p.Env().Now()
		for i := 0; i < n; i++ {
			g.AccessEntry(p)
		}
		g.tracer.Span(g.server.Name(), p.TraceID(), trace.GEMEntries, start, p.Env().Now(), "n="+strconv.Itoa(n))
		return
	}
	for i := 0; i < n; i++ {
		g.AccessEntry(p)
	}
}

// AccessPageFn performs one page access on the callback tier for a
// parked process: when the access completes, the server is released,
// fin runs in kernel context and the process resumes — all in one
// calendar slot. The caller parks after setting up the chain.
func (g *GEM) AccessPageFn(c sim.Continuation, fin func()) {
	g.pageAccesses++
	if g.tracer.Enabled() {
		env := g.server.Env()
		start := env.Now()
		tid := c.TraceID()
		inner := fin
		fin = func() {
			g.tracer.Span(g.server.Name(), tid, trace.GEMPage, start, env.Now(), "")
			if inner != nil {
				inner()
			}
		}
	}
	g.server.RequestResume(c, g.params.PageAccess, fin)
}

// AccessEntryFn performs one entry access on the callback tier for a
// parked process (untraced, like AccessEntry): when it completes, fin
// runs and the process resumes in the same calendar slot.
func (g *GEM) AccessEntryFn(c sim.Continuation, fin func()) {
	g.entryAccesses++
	g.server.RequestResume(c, g.params.EntryAccess, fin)
}

// AccessEntriesFn performs n consecutive entry accesses on the callback
// tier for a parked process; after the last one completes (and its
// server is released), fin runs and the process resumes, in the same
// calendar slot. n must be at least 1; the caller parks after setting
// up the chain.
func (g *GEM) AccessEntriesFn(c sim.Continuation, n int, fin func()) {
	if g.tracer.Enabled() {
		env := g.server.Env()
		start := env.Now()
		tid := c.TraceID()
		count := n
		inner := fin
		fin = func() {
			g.tracer.Span(g.server.Name(), tid, trace.GEMEntries, start, env.Now(), "n="+strconv.Itoa(count))
			if inner != nil {
				inner()
			}
		}
	}
	g.entryChain(c, n, fin)
}

// entryChain runs the remaining accesses of an AccessEntriesFn batch.
func (g *GEM) entryChain(c sim.Continuation, left int, fin func()) {
	g.entryAccesses++
	if left <= 1 {
		g.server.RequestResume(c, g.params.EntryAccess, fin)
		return
	}
	ch := g.chains.Get()
	if ch == nil {
		ch = &entryChain{g: g}
		ch.step = ch.next
	}
	ch.c, ch.left, ch.fin = c, left-1, fin
	g.server.Request(g.params.EntryAccess, ch.step)
}

// next starts the batch's next access. The record goes back to the
// pool before the last access is issued: from then on only that
// access's completion event refers to fin and the continuation.
func (ch *entryChain) next() {
	g := ch.g
	g.entryAccesses++
	if ch.left <= 1 {
		c, fin := ch.c, ch.fin
		ch.c, ch.fin = sim.Continuation{}, nil
		g.chains.Put(ch)
		g.server.RequestResume(c, g.params.EntryAccess, fin)
		return
	}
	ch.left--
	g.server.Request(g.params.EntryAccess, ch.step)
}

// RequestEntry performs one entry access entirely on the callback tier
// (no process involved); done fires when it completes.
func (g *GEM) RequestEntry(done func()) {
	g.entryAccesses++
	g.server.Request(g.params.EntryAccess, done)
}

// RequestPage performs one page access entirely on the callback tier;
// done fires when it completes.
func (g *GEM) RequestPage(done func()) {
	g.pageAccesses++
	if g.tracer.Enabled() {
		env := g.server.Env()
		start := env.Now()
		inner := done
		done = func() {
			g.tracer.Span(g.server.Name(), 0, trace.GEMPage, start, env.Now(), "")
			if inner != nil {
				inner()
			}
		}
	}
	g.server.Request(g.params.PageAccess, done)
}

// BusySeconds returns accumulated server-busy seconds since the last
// ResetStats, for windowed utilization sampling.
func (g *GEM) BusySeconds() float64 { return g.server.BusySeconds() }

// Utilization returns the device utilization since the last ResetStats.
func (g *GEM) Utilization() float64 { return g.server.Utilization() }

// MeanWait returns the mean queueing delay at the device.
func (g *GEM) MeanWait() time.Duration { return g.server.MeanWait() }

// PageAccesses returns the number of page accesses since the last
// ResetStats.
func (g *GEM) PageAccesses() int64 { return g.pageAccesses }

// EntryAccesses returns the number of entry accesses since the last
// ResetStats.
func (g *GEM) EntryAccesses() int64 { return g.entryAccesses }

// Counters returns the GEM device's raw station counters for
// operational-law validation.
func (g *GEM) Counters() attrib.StationCounters { return g.server.Counters() }

// PageAccessTime returns the configured page access time, the service
// part of one synchronous page transfer.
func (g *GEM) PageAccessTime() time.Duration { return g.params.PageAccess }

// EntryAccessTime returns the configured entry access time.
func (g *GEM) EntryAccessTime() time.Duration { return g.params.EntryAccess }

// ResetStats discards accumulated statistics.
func (g *GEM) ResetStats() {
	g.server.ResetStats()
	g.pageAccesses = 0
	g.entryAccesses = 0
}
