package node

import (
	"math"
	"sort"
	"strconv"
	"time"

	"gemsim/internal/attrib"
	"gemsim/internal/model"
	"gemsim/internal/sim"
	"gemsim/internal/stats"
	"gemsim/internal/trace"
)

// This file is the node-level half of the observability layer: the
// windowed time-series sampler (throughput, response time, resource
// utilization, queue depths over fixed intervals of simulated time) and
// the helpers that feed the per-transaction response-time record and
// lock-wait spans. The device-level spans live in the device packages;
// here the transaction path is measured as disjoint wall-clock
// intervals on the transaction's own process, which makes the
// per-phase sums add up to the response time exactly (see
// attrib.Vector).

// winCounters are cumulative counter values captured at the previous
// sample, used to form per-window deltas. All sources reset at
// ResetStats, which also resets this snapshot.
type winCounters struct {
	commits  int64
	aborts   int64
	dropped  int64
	cpuBusy  float64
	gemBusy  float64
	diskBusy float64
	bufHits  int64
	bufTotal int64
}

// StartSampler starts the windowed metrics sampler: every interval it
// emits one Sample covering the window that just ended — to w as a
// JSONL row, and, when event tracing is on, as counter tracks in the
// event trace. The sampler never blocks, so it runs as a
// self-rescheduling callback event on the kernel tier. Sampling is
// driven by simulated time only, so sampled runs remain deterministic
// and do not perturb the simulation (the sampler touches no shared
// resources).
func (s *System) StartSampler(interval time.Duration, w *trace.TimeSeriesWriter) {
	if interval <= 0 || s.sampling || (!w.Enabled() && !s.tracer.Enabled()) {
		return
	}
	s.sampling = true
	s.winHist = stats.NewDurationHistogram()
	s.resetWindow()
	var tick func()
	tick = func() {
		smp := s.windowSample(interval)
		w.Write(smp)
		s.traceCounters(smp)
		s.traceAttrib(smp.T)
		s.winRT.Reset()
		s.winHist.Reset()
		s.env.After(interval, tick)
	}
	s.env.After(interval, tick)
}

// traceAttrib emits the live-introspection instants of the attribution
// engine onto the event trace, one set per sampler tick: a windowed
// operational-law report per station and a wait-for graph snapshot
// (top blockers, longest chain, convoy flag). Pure accounting — the
// emission schedules no events and draws no random numbers, so traces
// are byte-identical across -jobs levels.
func (s *System) traceAttrib(at sim.Time) {
	if s.attribBD == nil || !s.tracer.Enabled() {
		return
	}
	cur := s.stationCounters()
	prev := s.prevStations
	s.prevStations = cur
	for i, c := range cur {
		w := c
		if i < len(prev) && prev[i].Name == c.Name {
			p := prev[i]
			w.Elapsed = c.Elapsed - p.Elapsed
			w.BusySeconds = c.BusySeconds - p.BusySeconds
			w.QSeconds = c.QSeconds - p.QSeconds
			w.Requests = c.Requests - p.Requests
			w.WaitSum = c.WaitSum - p.WaitSum
			w.SvcSum = c.SvcSum - p.SvcSum
			w.SvcN = c.SvcN - p.SvcN
		}
		laws := attrib.Derive(w)
		s.tracer.Instant("attrib", 0, trace.AttribStation, at, laws.EncodeArg())
	}
	var edges []attrib.WaitEdge
	for _, tbl := range s.tables {
		for _, e := range tbl.WaitEdges() {
			edges = append(edges, attrib.WaitEdge{
				Waiter: e.Waiter.String(),
				Holder: e.Holder.String(),
			})
		}
	}
	rep := attrib.AnalyzeWaitFor(edges, 5)
	s.tracer.Instant("attrib", 0, trace.AttribWaitFor, at, rep.EncodeArg())
}

// observeCommit feeds a committed transaction into the response-time
// breakdown and the current sampling window; with event tracing on,
// the transaction's critical-path vector is emitted as a txnpath
// instant on the node's track.
func (s *System) observeCommit(n *Node, tid int64, cp *attrib.Vector, rt time.Duration) {
	s.attribBD.Observe(cp, rt)
	if cp != nil {
		if tr := s.tracer; tr.Enabled() {
			tr.Instant(n.track, tid, trace.AttribTxnPath, s.env.Now(), cp.EncodeArg())
		}
	}
	if s.sampling {
		s.winRT.AddDuration(rt)
		s.winHist.AddDuration(rt)
	}
}

// resetWindow re-bases the delta counters on the current cumulative
// values and clears the window response-time collectors.
func (s *System) resetWindow() {
	s.prevWin = s.cumCounters()
	s.winRT.Reset()
	if s.winHist != nil {
		s.winHist.Reset()
	}
}

// cumCounters captures the cumulative counters the sampler differences.
// Disk groups are iterated in sorted file order: float sums depend on
// addition order, and map iteration would make the emitted time series
// nondeterministic.
func (s *System) cumCounters() winCounters {
	var c winCounters
	for _, n := range s.nodes {
		c.commits += n.commits
		c.aborts += n.aborts
		c.cpuBusy += n.cpu.BusySeconds()
		c.diskBusy += n.logGroup.DiskBusySeconds()
	}
	c.gemBusy = s.gemDev.BusySeconds()
	for _, id := range s.sortedGroupIDs() {
		c.diskBusy += s.groups[id].DiskBusySeconds()
	}
	for i := range s.db.Files {
		for _, n := range s.nodes {
			h, t := n.pool.HitCounts(i)
			c.bufHits += h
			c.bufTotal += t
		}
	}
	c.dropped = s.net.Dropped()
	return c
}

// sortedGroupIDs returns the disk-backed file ids in ascending order.
func (s *System) sortedGroupIDs() []model.FileID {
	ids := make([]model.FileID, 0, len(s.groups))
	for id := range s.groups {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// windowSample builds the sample for the window of the given length
// ending now, and advances the delta base.
func (s *System) windowSample(interval time.Duration) *trace.Sample {
	cur := s.cumCounters()
	prev := s.prevWin
	s.prevWin = cur
	secs := interval.Seconds()
	smp := &trace.Sample{
		T:       s.env.Now(),
		Commits: maxI64(0, cur.commits-prev.commits),
		Aborts:  maxI64(0, cur.aborts-prev.aborts),
		Dropped: maxI64(0, cur.dropped-prev.dropped),
	}
	smp.Throughput = float64(smp.Commits) / secs
	if s.winRT.Count() > 0 {
		smp.RTMean = s.winRT.Mean()
	} else {
		smp.RTMean = math.NaN()
	}
	smp.RTP95 = s.winHist.Percentile(0.95)
	cpus := float64(s.params.Nodes * s.params.CPUsPerNode)
	smp.CPUUtil = utilOf(cur.cpuBusy-prev.cpuBusy, secs, cpus)
	gemServers := s.params.GEM.Servers
	if gemServers <= 0 {
		gemServers = 1
	}
	smp.GEMUtil = utilOf(cur.gemBusy-prev.gemBusy, secs, float64(gemServers))
	smp.DiskUtil = utilOf(cur.diskBusy-prev.diskBusy, secs, float64(s.diskServers()))
	for _, tbl := range s.tables {
		smp.LockWaitQ += tbl.WaitingCount()
	}
	smp.Active = s.live
	if dTotal := cur.bufTotal - prev.bufTotal; dTotal > 0 {
		smp.BufferHit = float64(cur.bufHits-prev.bufHits) / float64(dTotal)
	} else {
		smp.BufferHit = math.NaN()
	}
	for _, down := range s.down {
		if down {
			smp.NodesDown++
		}
	}
	return smp
}

// diskServers counts disk servers across all groups including logs.
func (s *System) diskServers() int {
	total := 0
	for _, id := range s.sortedGroupIDs() {
		total += s.groups[id].Disks()
	}
	for _, n := range s.nodes {
		total += n.logGroup.Disks()
	}
	return total
}

// traceCounters mirrors a sample onto counter tracks of the event
// trace, so Perfetto shows the metrics timeline next to the spans.
func (s *System) traceCounters(smp *trace.Sample) {
	t := s.tracer
	if !t.Enabled() {
		return
	}
	at := smp.T
	t.Counter("metrics", "tput", at, smp.Throughput)
	t.Counter("metrics", "rt_mean_ms", at, smp.RTMean*1000)
	t.Counter("metrics", "cpu_util", at, smp.CPUUtil)
	t.Counter("metrics", "gem_util", at, smp.GEMUtil)
	t.Counter("metrics", "disk_util", at, smp.DiskUtil)
	t.Counter("metrics", "lock_wait_q", at, float64(smp.LockWaitQ))
	t.Counter("metrics", "active_txns", at, float64(smp.Active))
	if s.faultsOn {
		t.Counter("metrics", "nodes_down", at, float64(smp.NodesDown))
	}
}

// utilOf converts a busy-seconds delta to a utilization in [0,1].
func utilOf(busyDelta, secs float64, servers float64) float64 {
	if secs <= 0 || servers <= 0 {
		return 0
	}
	u := busyDelta / (secs * servers)
	if u < 0 {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// readPhase classifies a demand page read for phase accounting:
// GEM-resident files count as page transfers, everything else as
// storage reads (disk, cached or write-buffered).
func readPhase(f *model.File) attrib.Phase {
	if f.Medium == model.MediumGEM {
		return attrib.PhasePageXfer
	}
	return attrib.PhaseIORead
}

// lockWaitDone records a completed (or aborted) lock wait that started
// at start: into the transaction's response-time record and, when
// tracing, as one wait span on the node's track keyed by the contended
// page.
func (n *Node) lockWaitDone(t *txn, slot int32, start sim.Time) {
	t.cp.Charge(attrib.PhaseLockWait, attrib.ResLock, n.sys.env.Now()-start, 0)
	if tr := n.sys.tracer; tr.Enabled() {
		tr.Span(n.track, int64(t.id), trace.LockWait, start, n.sys.env.Now(), n.sys.dir.Page(slot).String())
	}
}

// engineSpan traces one completed batch of n lock-engine operations
// (the engine device's Span hook) on the engine's track.
func (s *System) engineSpan(tid int64, start sim.Time, n int) {
	if tr := s.tracer; tr.Enabled() {
		tr.Span(s.engine.Res.Name(), tid, trace.LockEngineOps, start, s.env.Now(), "n="+strconv.Itoa(n))
	}
}
