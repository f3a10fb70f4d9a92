// Package gem models the Global Extended Memory: a shared, non-volatile
// semiconductor store with a page interface (tens of microseconds per
// access) and an entry interface (a few microseconds per access,
// Compare&Swap semantics) through which all nodes implement the global
// lock table, exchange pages and keep whole database files resident.
//
// GEM accesses are synchronous: the accessing CPU stays busy for the
// queueing plus access time. Callers run them through the CPU-held
// composite (cpusrv.CPU.Hold) on one of the device's access kinds
// (Page, Entries, Entry); this package only models the GEM device
// itself (a single FCFS server by default, as in the paper).
package gem

import (
	"strconv"
	"time"

	"gemsim/internal/attrib"
	"gemsim/internal/cpusrv"
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

	page, entries, entry cpusrv.Device
}

// New creates a GEM device in the given environment.
func New(env *sim.Env, params Params) *GEM {
	if params.Servers <= 0 {
		params.Servers = 1
	}
	g := &GEM{
		params:   params,
		server:   sim.NewResource(env, "gem", params.Servers),
		resident: make(map[model.FileID]bool),
	}
	g.page = cpusrv.Device{Res: g.server, Svc: params.PageAccess, Count: &g.pageAccesses, Span: g.pageSpan}
	g.entries = cpusrv.Device{Res: g.server, Svc: params.EntryAccess, Count: &g.entryAccesses, Span: g.entriesSpan}
	g.entry = cpusrv.Device{Res: g.server, Svc: params.EntryAccess, Count: &g.entryAccesses}
	return g
}

// AllocateFile marks a database file as GEM-resident.
func (g *GEM) AllocateFile(id model.FileID) { g.resident[id] = true }

// Resident reports whether the file is GEM-resident.
func (g *GEM) Resident(id model.FileID) bool { return g.resident[id] }

// SetTracer attaches a span tracer (nil disables tracing). Page
// accesses and entry-access batches are traced; lone entry accesses are
// too short-lived to be worth an event each.
func (g *GEM) SetTracer(t *trace.Tracer) { g.tracer = t }

// Page is the page-transfer access kind, traced as one span per
// transfer.
func (g *GEM) Page() *cpusrv.Device { return &g.page }

// Entries is an entry-access batch (e.g. read a lock entry, then write
// it back with Compare&Swap), traced as one span per batch.
func (g *GEM) Entries() *cpusrv.Device { return &g.entries }

// Entry is a lone, untraced entry access (a message deposit or pickup).
func (g *GEM) Entry() *cpusrv.Device { return &g.entry }

// pageSpan traces one completed page transfer.
func (g *GEM) pageSpan(tid int64, start sim.Time, _ int) {
	if g.tracer.Enabled() {
		g.tracer.Span(g.server.Name(), tid, trace.GEMPage, start, g.server.Env().Now(), "")
	}
}

// entriesSpan traces one completed batch of n entry accesses.
func (g *GEM) entriesSpan(tid int64, start sim.Time, n int) {
	if g.tracer.Enabled() {
		g.tracer.Span(g.server.Name(), tid, trace.GEMEntries, start, g.server.Env().Now(), "n="+strconv.Itoa(n))
	}
}

// AccessEntryFn performs one entry access for a parked process that
// holds no CPU (untraced, like Entry): when it completes, the process
// resumes. The caller parks right after the call.
func (g *GEM) AccessEntryFn(c sim.Continuation) {
	g.entryAccesses++
	g.server.RequestResume(c, g.params.EntryAccess, nil)
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
