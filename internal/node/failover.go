package node

import (
	"slices"
	"sort"
	"time"

	"gemsim/internal/attrib"
	"gemsim/internal/buffer"
	"gemsim/internal/lock"
	"gemsim/internal/model"
	"gemsim/internal/netsim"
	"gemsim/internal/recovery"
	"gemsim/internal/sim"
	"gemsim/internal/trace"
)

// This file implements the failure model: node crashes injected by the
// fault package, the killing of in-flight transactions, and the
// survivor-driven recovery phase whose duration is measured from the
// actual run state (dirty pages lost with the buffer, log length since
// the last fuzzy checkpoint).
//
// The architectural contrast follows the paper's non-volatility
// argument for GEM: with the global lock table in non-volatile GEM,
// lock state survives a node crash and recovery only has to fence the
// failed node's modified pages and scan its log — which itself sits in
// GEM at ~50 µs per page when LogInGEM is set. Under loose coupling
// (PCL) the failed node additionally takes its GLA partition down with
// it: a survivor must adopt the partition and rebuild its lock table
// from the other nodes via messages, and the log scan runs against
// disks at milliseconds per page.

// fenceTag marks a recovery fence request in a lock table. The wake
// dispatchers ignore it (the recovery process releases fences itself).
type fenceTag struct{}

// rebuildTag marks survivor locks re-registered during GLA rebuild.
type rebuildTag struct{}

// dirtyPage is one buffered page lost in a crash.
type dirtyPage struct {
	page model.PageID
	slot int32
	seq  uint64
}

// redoPage is one page the recovery phase restores from log and
// storage.
type redoPage struct {
	page   model.PageID
	slot   int32
	tbl    int    // lock table holding the fence; -1 for unlocked files
	seq    uint64 // committed sequence number to restore
	fence  lock.Owner
	fenced bool
}

// failWindow is one [crash, recovery-end] interval; end stays zero
// while recovery is in progress.
type failWindow struct {
	start sim.Time
	end   sim.Time
}

// FailoverStats describes one recovered node crash.
type FailoverStats struct {
	Node        int
	CrashAt     time.Duration
	DetectAt    time.Duration
	RecoveredAt time.Duration
	// RecoveryDuration is the full outage: crash until the last page
	// was redone and unfenced.
	RecoveryDuration time.Duration
	// ReopenAt is when transactions were readmitted past the fences:
	// under incremental reopen the moment the lock state is recovered
	// and fences are armed (replay still in flight); under offline
	// replay it equals RecoveredAt.
	ReopenAt time.Duration
	// Phase durations: LogScan and Redo are the critical path, the
	// slowest replay worker's scan and replay time. The coordinator's
	// scan (worker 0) includes the loser undo scan.
	LockRecovery time.Duration
	LogScan      time.Duration
	Redo         time.Duration
	// TimeToFullThroughput is the availability metric of STAR: the
	// time from the crash until the windowed complex throughput first
	// recrosses 95% of its pre-crash baseline. Zero when throughput
	// never recovered inside the measured interval.
	TimeToFullThroughput time.Duration
	// BaselineTput is the pre-crash windowed throughput baseline
	// (txns/s) the recovery is measured against.
	BaselineTput float64
	// Work counts.
	LogPagesScanned int64
	PagesRedone     int64
	LocksRecovered  int64
	TxnsKilled      int64
	// PagesRepairedOnDemand counts redo pages repaired out of order
	// because a readmitted transaction touched them first
	// (incremental reopen only).
	PagesRepairedOnDemand int64
	// Workers is the number of replay workers used, the coordinator
	// included.
	Workers int
}

// recoveryRun is the live state of one in-flight recovery under the
// replay engine. System.recs lists the runs in flight, so fault-free
// runs take no new branches.
type recoveryRun struct {
	crashed     int
	coordID     int
	coord       *Node
	incremental bool
	replay      *recovery.Replay
	byPage      map[model.PageID]*redoPage
	pagesLeft   int
	workersLeft int
	coordProc   *sim.Proc
	// waiting is set once the coordinator has parked for completion;
	// before that, finishing workers must not Unpark it (it may be
	// parked inside a device wait of its own scan or replay).
	waiting   bool
	repairs   int64
	maxScan   time.Duration
	maxReplay time.Duration
}

// CrashNode implements fault.Target: the node fails, losing its
// volatile state (database buffer, read authorizations, in-flight
// transactions). It runs in kernel context; the state transition is
// immediate and all timed recovery work happens in the recovery
// process spawned at the end.
func (s *System) CrashNode(node int) {
	if !s.faultsOn || s.down[node] {
		return
	}
	alive := 0
	for i := range s.down {
		if !s.down[i] {
			alive++
		}
	}
	if alive <= 1 {
		return // never fail the last node: nobody could recover
	}
	s.down[node] = true
	n := s.nodes[node]
	crashAt := s.env.Now()

	// The dirty pages lost with the buffer form the redo set (under
	// NOFORCE committed versions may exist only in the failed buffer).
	var dirty []dirtyPage
	n.pool.Pages(func(f *buffer.Frame[int32]) {
		if f.Dirty {
			dirty = append(dirty, dirtyPage{page: s.dir.Page(f.Page), slot: f.Page, seq: f.SeqNo})
		}
	})
	slices.SortFunc(dirty, func(a, b dirtyPage) int { return pageCmp(a.page, b.page) })
	n.pool.DropAll()
	n.inflight = make(map[int32]uint64)
	s.dropNodeRAs(s.raWords, node)
	logPages := n.logSinceCkpt
	n.logSinceCkpt = 0
	s.dropNodeRAs(0, node)

	// Kill the transactions in flight at the node. Parked waiters are
	// woken so they unwind; running ones notice killed at their next
	// lock or loop check. Their locks stay registered until recovery
	// releases them, so surviving conflicting requests keep waiting —
	// that wait is part of the measured degradation.
	var losers []lock.Owner
	for o := range s.active {
		if o.Node == node {
			losers = append(losers, o)
		}
	}
	sort.Slice(losers, func(i, j int) bool { return losers[i].Tx < losers[j].Tx })
	for _, o := range losers {
		t := s.active[o]
		t.killed = true
		if t.waiting == nil {
			continue
		}
		for i, tbl := range s.tables {
			if tbl.Waiting(o) != nil {
				s.answer(tbl.CancelWaiting(o), i, s.aliveTarget(node), sim.Continuation{})
			}
		}
		t.proc.Unpark()
	}
	s.txnsKilled += int64(len(losers))

	if tr := s.tracer; tr.Enabled() {
		tr.Instant("failover", 0, trace.FaultCrash, crashAt, "node="+itoa(node))
	}
	if s.avail != nil {
		s.avail.noteCrash(crashAt)
	}
	w := &failWindow{start: crashAt}
	s.failWindows = append(s.failWindows, w)
	s.env.Spawn("recovery", func(p *sim.Proc) {
		s.runRecovery(p, node, crashAt, losers, dirty, logPages, w)
	})
}

// RepairNode implements fault.Target: the node rejoins the complex
// with a cold buffer. GLA partitions adopted by survivors stay where
// they are (no failback).
func (s *System) RepairNode(node int) {
	if !s.faultsOn || !s.down[node] {
		return
	}
	n := s.nodes[node]
	n.pool.DropAll()
	n.inflight = make(map[int32]uint64)
	s.dropNodeRAs(s.raWords, node)
	n.logSinceCkpt = 0
	s.down[node] = false
	if tr := s.tracer; tr.Enabled() {
		tr.Instant("failover", 0, trace.FaultRepair, s.env.Now(), "node="+itoa(node))
	}
}

// StallDisk implements fault.Target: freeze the named disk group
// (file name, or "logN" for node N's log disks).
func (s *System) StallDisk(file string, d time.Duration) {
	for _, g := range s.groups {
		if g.Name() == file {
			g.StallFor(d)
			return
		}
	}
	for _, n := range s.nodes {
		if n.logGroup.Name() == file {
			n.logGroup.StallFor(d)
			return
		}
	}
}

// aliveTarget returns the preferred node if it is up, otherwise the
// next alive node in ring order.
func (s *System) aliveTarget(pref int) int {
	for k := 0; k < len(s.nodes); k++ {
		i := (pref + k) % len(s.nodes)
		if !s.down[i] {
			return i
		}
	}
	return pref
}

// coordinator picks the recovery coordinator: the lowest-numbered
// surviving node.
func (s *System) coordinator() int {
	for i := range s.nodes {
		if !s.down[i] {
			return i
		}
	}
	return 0
}

// runWithRetry drives one transaction, admitted at n's gate, to
// commit across failures: when the execution reports "not committed"
// (the node crashed under it), the transaction is resubmitted — to
// another node if its own is down — and waits at that node's gate,
// preserving the original arrival time, so the availability cost
// shows up in the measured response time.
func (s *System) runWithRetry(p *sim.Proc, n *Node, spec model.Txn, arrive sim.Time) {
	var cp *attrib.Vector
	if s.attribBD != nil {
		// One record for the whole transaction: its sums must cover the
		// response time, which spans crash resubmissions.
		if cp = s.vectors.Get(); cp == nil {
			cp = &attrib.Vector{}
		}
		*cp = attrib.Vector{}
		defer s.vectors.Put(cp)
	}
	entered := arrive
	for {
		committed := n.runTxn(p, spec, arrive, entered, cp)
		n.active--
		if committed || !s.faultsOn {
			return
		}
		s.txnsRetried++
		if d := s.params.RestartDelayMean; d > 0 {
			waitStart := s.env.Now()
			p.Wait(time.Duration(n.src.Exp(d.Seconds()) * float64(time.Second)))
			cp.Charge(attrib.PhaseBackoff, attrib.ResOther, s.env.Now()-waitStart, 0)
		}
		n = s.nodes[s.aliveTarget(n.id)]
		n.active++
		entered = s.env.Now()
		n.gate.wait(p)
	}
}

// classifyRT files a committed transaction's response time into the
// pre-failure, during-recovery or post-recovery series.
func (s *System) classifyRT(at sim.Time, rt time.Duration) {
	if len(s.failWindows) == 0 {
		s.respPre.AddDuration(rt)
		return
	}
	for _, w := range s.failWindows {
		if at >= w.start && (w.end == 0 || at <= w.end) {
			s.respDuring.AddDuration(rt)
			return
		}
	}
	if at < s.failWindows[0].start {
		s.respPre.AddDuration(rt)
		return
	}
	s.respPost.AddDuration(rt)
}

// startCheckpoints runs one fuzzy checkpoint process per node: at
// every interval the node logs its dirty page table (one log page
// write) and resets the redo scan horizon. Transaction processing is
// not paused.
func (s *System) startCheckpoints() {
	if !s.faultsOn || s.params.CheckpointInterval <= 0 {
		return
	}
	for _, n := range s.nodes {
		n := n
		s.env.Spawn("ckpt"+itoa(n.id), func(p *sim.Proc) {
			for {
				p.Wait(s.params.CheckpointInterval)
				if s.down[n.id] {
					continue
				}
				n.writeLog(p, nil)
				n.logSinceCkpt = 0
			}
		})
	}
}

// runRecovery is the recovery coordinator: a process at the
// lowest-numbered survivor that recovers lock state, fences the failed
// node's modified pages, releases loser locks, scans the failed node's
// log since its last checkpoint and redoes the lost pages as replay
// worker 0 (runReplay). Every step is charged against the
// coordinator's CPU and the shared devices, so the recovery duration —
// and the degradation other transactions see — comes out of the
// simulation itself.
func (s *System) runRecovery(p *sim.Proc, crashed int, crashAt sim.Time, losers []lock.Owner, dirty []dirtyPage, logPages int64, w *failWindow) {
	params := &s.params
	if params.DetectDelay > 0 {
		p.Wait(params.DetectDelay)
	}
	detectAt := s.env.Now()
	traceArg := "node=" + itoa(crashed)
	if tr := s.tracer; tr.Enabled() {
		tr.Span("failover", 0, trace.RecoveryDetect, crashAt, detectAt, traceArg)
	}
	coordID := s.coordinator()
	coord := s.nodes[coordID]
	fs := FailoverStats{
		Node:            crashed,
		CrashAt:         crashAt,
		DetectAt:        detectAt,
		TxnsKilled:      int64(len(losers)),
		LogPagesScanned: logPages,
	}

	// Phase 1: lock state recovery and page fencing.
	lockStart := s.env.Now()
	var redo []redoPage
	if params.Coupling == CouplingPCL {
		// Only committed versions are redone; pages dirtied solely by
		// losers roll back to the storage version. The committed
		// sequence number is the GLA metadata: the larger of a lost
		// partition's table as it stood before adoption and the adopted
		// table after the rebuild, which lock releases can reach while
		// recovery waits for the rebuild replies.
		committed := make([]uint64, len(dirty))
		for i, d := range dirty {
			committed[i] = s.dir.At(d.slot).Seq
		}
		fs.LocksRecovered = s.recoverPCLLocks(p, coord, crashed)
		for i, d := range dirty {
			if !s.db.File(d.page.File).Locking {
				redo = append(redo, redoPage{page: d.page, slot: d.slot, tbl: -1, seq: d.seq})
				continue
			}
			if seq := max(committed[i], s.dir.At(d.slot).Seq); seq > 0 {
				redo = append(redo, redoPage{page: d.page, slot: d.slot, tbl: s.glaOf(d.slot), seq: seq})
			}
		}
	} else {
		// The GLT survives in non-volatile GEM: read the failed node's
		// entries (losers' locks and owned pages) — no rebuild needed.
		entries := 0
		for _, o := range losers {
			entries += s.tables[0].HeldCount(o)
		}
		owned := s.gemOwnedPages(crashed)
		entries += len(owned)
		if entries > 0 {
			coord.gemEntryOp(p, float64(entries)*params.RecoveryEntryInstr, entries)
		}
		fs.LocksRecovered = int64(entries)
		for _, slot := range owned {
			m := s.gltMetaOf(slot)
			redo = append(redo, redoPage{page: m.Page, slot: slot, tbl: 0, seq: m.Seq})
		}
		for _, d := range dirty {
			if !s.db.File(d.page.File).Locking {
				redo = append(redo, redoPage{page: d.page, slot: d.slot, tbl: -1, seq: d.seq})
			}
		}
	}

	// Fence the redo pages: a write lock per page under a unique
	// recovery owner (negative tx id: never a deadlock victim) keeps
	// transactions from reading stale storage versions until the page
	// is redone. Fences queue behind loser locks and are promoted when
	// those are released below.
	for i := range redo {
		r := &redo[i]
		if r.tbl < 0 {
			continue
		}
		s.recoverySeq++
		r.fence = lock.Owner{Node: crashed, Tx: lock.TxID(-s.recoverySeq)}
		if params.Coupling == CouplingPCL {
			if params.RecoveryEntryInstr > 0 {
				coord.cpu.Exec(p, params.RecoveryEntryInstr)
			}
		} else {
			coord.gemEntryOp(p, 0, 1)
		}
		s.tables[r.tbl].Request(r.slot, r.fence, model.LockWrite, fenceTag{})
		r.fenced = true
	}

	// Release the losers' locks and wake unblocked waiters.
	for _, o := range losers {
		for i, tbl := range s.tables {
			held := tbl.HeldCount(o)
			if held == 0 && tbl.Waiting(o) == nil {
				continue
			}
			if params.Coupling == CouplingPCL {
				if params.RecoveryEntryInstr > 0 && held > 0 {
					coord.cpu.Exec(p, float64(held)*params.RecoveryEntryInstr)
				}
			} else if held > 0 {
				coord.gemEntryOp(p, 0, 2*held)
			}
			if s.answer(tbl.ReleaseAll(o), i, coordID, p.Continuation()) {
				p.Park()
			}
		}
	}
	fs.LockRecovery = s.env.Now() - lockStart
	if tr := s.tracer; tr.Enabled() {
		tr.Span("failover", 0, trace.RecoveryLockRecovery, lockStart, s.env.Now(), traceArg)
	}

	workers := max(params.RecoveryWorkers, 1)
	incremental := params.Reopen == recovery.ReopenIncremental
	s.runReplay(p, coordID, coord, crashed, losers, redo, logPages, workers, incremental, &fs, traceArg)
	fs.PagesRedone = int64(len(redo))
	fs.Workers = workers
	if tr := s.tracer; tr.Enabled() {
		tr.Instant("failover", 0, trace.RecoveryRecovered, s.env.Now(), traceArg)
	}

	end := s.env.Now()
	if !incremental {
		fs.ReopenAt = end
	}
	fs.RecoveredAt = end
	fs.RecoveryDuration = end - crashAt
	w.end = end
	s.failovers = append(s.failovers, fs)
	if s.ctl != nil {
		// The allocation just changed under the controller (partitions
		// adopted, load redirected): rebalance right away.
		s.ctl.noteFailover()
	}
}

// redoOnePage restores one lost page: read the storage version, apply
// the log records, write the recovered version back, update the
// coherency metadata, then drop the fence and wake its waiters.
func (s *System) redoOnePage(p *sim.Proc, coordID int, coord *Node, crashed int, r *redoPage) {
	params := &s.params
	file := s.db.File(r.page.File)
	coord.readStorage(p, nil, file, r.slot, 0)
	if params.RecoveryApplyInstr > 0 {
		coord.cpu.Exec(p, params.RecoveryApplyInstr)
	}
	coord.writeStorage(p, nil, file, r.slot, r.seq)
	if r.tbl >= 0 {
		if params.Coupling == CouplingPCL {
			meta := s.pclMetaOf(r.tbl, r.slot)
			if r.seq > meta.Seq {
				meta.Seq = r.seq
			}
			if int(meta.Owner) == crashed {
				meta.Owner = -1
			}
		} else {
			meta := s.gltMetaOf(r.slot)
			if int(meta.Owner) == crashed {
				meta.Owner = -1
			}
			coord.gemEntryOp(p, 0, 1)
		}
	}
	if r.fenced {
		tbl := s.tables[r.tbl]
		var granted []lock.Grant
		if tbl.HoldsLock(r.slot, r.fence, model.LockWrite) {
			granted = tbl.Release(r.slot, r.fence)
		} else {
			// Fence never granted (a survivor still holds the
			// page); withdraw it, the holder's copy is current.
			granted = tbl.CancelWaiting(r.fence)
		}
		if s.answer(granted, r.tbl, coordID, p.Continuation()) {
			p.Park()
		}
	}
}

// runReplay is the replay engine that serves every recovery: the
// failed node's log span and REDO backlog are partitioned by GLA
// across recovery workers (longest-backlog-first, deterministic). The
// coordinator is worker 0: it scans its log share, then the undo
// information of each loser, then replays its own partitions. Workers
// 1..W-1 are processes of their own over the shared devices — the
// coordinator node's CPU complex bounds the CPU-side speedup at
// CPUsPerNode, its disk groups and GEM ports the device side, so the
// parallelism is costed, not free. With one worker and offline reopen
// this is a single serial pass on the coordinator. Under incremental
// reopen the complex is considered reopened as soon as the fences are
// armed — which is already the case on entry — and a transaction
// hitting an unredone fence triggers an on-demand single-page repair
// that jumps the replay queue (see noteFenceConflict).
func (s *System) runReplay(p *sim.Proc, coordID int, coord *Node, crashed int, losers []lock.Owner, redo []redoPage, logPages int64, workers int, incremental bool, fs *FailoverStats, traceArg string) {
	params := &s.params
	replayStart := s.env.Now()
	pages := make([]model.PageID, len(redo))
	byPage := make(map[model.PageID]*redoPage, len(redo))
	for i := range redo {
		pages[i] = redo[i].page
		byPage[redo[i].page] = &redo[i]
	}
	rec := &recoveryRun{
		crashed:     crashed,
		coordID:     coordID,
		coord:       coord,
		incremental: incremental,
		replay:      recovery.NewReplay(pages),
		byPage:      byPage,
		pagesLeft:   len(redo),
		workersLeft: workers,
		coordProc:   p,
	}
	s.recs = append(s.recs, rec)
	if incremental {
		fs.ReopenAt = replayStart
		if tr := s.tracer; tr.Enabled() {
			tr.Span("failover", 0, trace.RecoveryReopen, fs.CrashAt, replayStart, traceArg)
		}
	}

	// Partition the backlog by GLA and assign partitions to workers,
	// heaviest first. Each worker's page list keeps the deterministic
	// backlog order. The GLA map may address more partitions than lock
	// tables exist under GEM coupling (and may be absent entirely), so
	// the partition array is sized from the backlog itself.
	part := func(page model.PageID) int {
		if s.gla == nil {
			return 0
		}
		return s.gla.GLA(page)
	}
	parts := 1
	for i := range redo {
		if g := part(redo[i].page); g >= parts {
			parts = g + 1
		}
	}
	counts := make([]int, parts)
	for i := range redo {
		counts[part(redo[i].page)]++
	}
	assign := recovery.AssignPartitions(counts, workers)
	perWorker := make([][]int, workers)
	for i := range redo {
		w := assign[part(redo[i].page)]
		perWorker[w] = append(perWorker[w], i)
	}

	crashedNode := s.nodes[crashed]
	work := func(wp *sim.Proc, w int) {
		// Split the log span evenly; the first workers take the
		// remainder.
		share := logPages / int64(workers)
		if int64(w) < logPages%int64(workers) {
			share++
		}
		// Log placement decides this phase: GEM-resident logs read at
		// ~50 µs per page, log disks at ~6 ms (shared disk: the
		// coordinator reaches the failed node's log disks).
		scanStart := s.env.Now()
		for i := int64(0); i < share; i++ {
			coord.logIO(wp, nil, crashedNode, false)
		}
		if w == 0 {
			// The loser undo scan is serial coordinator work.
			for range losers {
				coord.logIO(wp, nil, crashedNode, false)
				if params.RecoveryApplyInstr > 0 {
					coord.cpu.Exec(wp, params.RecoveryApplyInstr)
				}
			}
		}
		scanEnd := s.env.Now()
		if tr := s.tracer; tr.Enabled() && scanEnd > scanStart {
			tr.Span("failover", int64(w), trace.RecoveryLogScan, scanStart, scanEnd, traceArg)
		}
		for _, idx := range perWorker[w] {
			r := &redo[idx]
			if !rec.replay.Claim(r.page) {
				continue // repaired on demand (or by a racing claim)
			}
			s.redoOnePage(wp, coordID, coord, crashed, r)
			rec.replay.Done(r.page)
			s.recPageDone(rec)
		}
		replayEnd := s.env.Now()
		if tr := s.tracer; tr.Enabled() && len(perWorker[w]) > 0 {
			tr.Span("failover", int64(w), trace.RecoveryReplay, scanEnd, replayEnd, traceArg)
		}
		s.recWorkerDone(rec, scanEnd-scanStart, replayEnd-scanEnd)
	}
	for w := 1; w < workers; w++ {
		s.env.Spawn("replay"+itoa(w), func(wp *sim.Proc) { work(wp, w) })
	}
	work(p, 0)
	if rec.pagesLeft > 0 || rec.workersLeft > 0 {
		rec.waiting = true
		p.Park()
	}
	s.recs = slices.DeleteFunc(s.recs, func(r *recoveryRun) bool { return r == rec })
	fs.LogScan = rec.maxScan
	fs.Redo = rec.maxReplay
	fs.PagesRepairedOnDemand = rec.repairs
}

// recPageDone marks one backlog page fully replayed and completes the
// recovery when the last page and worker are done.
func (s *System) recPageDone(rec *recoveryRun) {
	rec.pagesLeft--
	if rec.pagesLeft == 0 && rec.workersLeft == 0 && rec.waiting {
		rec.coordProc.Unpark()
	}
}

// recWorkerDone retires one replay worker, keeping the critical-path
// phase durations.
func (s *System) recWorkerDone(rec *recoveryRun, scan, replay time.Duration) {
	if scan > rec.maxScan {
		rec.maxScan = scan
	}
	if replay > rec.maxReplay {
		rec.maxReplay = replay
	}
	rec.workersLeft--
	if rec.pagesLeft == 0 && rec.workersLeft == 0 && rec.waiting {
		rec.coordProc.Unpark()
	}
}

// noteFenceConflict is called from the lock paths when a request is
// not granted: under incremental reopen, a conflict on an unredone
// fenced page triggers an on-demand single-page repair that jumps the
// replay queue [Sauer & Härder]. Recoveries of different failed nodes
// may overlap; each repairs the page if it is in its own backlog. The
// repair carries its own log lookup cost (one log page read) on top of
// the normal per-page redo, so queue-jumping is costed, traced and
// counted. Outside recovery this is an empty loop.
func (s *System) noteFenceConflict(slot int32) {
	for _, rec := range s.recs {
		if rec.incremental {
			s.repairOnDemand(rec, s.dir.Page(slot))
		}
	}
}

// repairOnDemand spawns the on-demand repair of one page of rec's
// backlog, unless the page is not in the backlog or is already claimed
// by a replay worker or an earlier repair.
func (s *System) repairOnDemand(rec *recoveryRun, page model.PageID) {
	r, ok := rec.byPage[page]
	if !ok || !rec.replay.ClaimDemand(page) {
		return
	}
	rec.repairs++
	s.env.Spawn("page-repair", func(p *sim.Proc) {
		start := s.env.Now()
		rec.coord.logIO(p, nil, s.nodes[rec.crashed], false)
		if s.params.RecoveryApplyInstr > 0 {
			rec.coord.cpu.Exec(p, s.params.RecoveryApplyInstr)
		}
		s.redoOnePage(p, rec.coordID, rec.coord, rec.crashed, r)
		rec.replay.Done(page)
		if tr := s.tracer; tr.Enabled() {
			tr.Span("failover", 0, trace.RecoveryPageRepair, start, s.env.Now(), "page="+page.String())
		}
		s.recPageDone(rec)
	})
}

// gemOwnedPages lists the slots of the pages whose current version was
// buffered at the given node according to the GLT, in page order.
func (s *System) gemOwnedPages(node int) []int32 {
	var slots []int32
	for i := int32(0); i < int32(s.dir.Len()); i++ {
		if int(s.gltMetaOf(i).Owner) == node {
			slots = append(slots, i)
		}
	}
	return sortSlots(s.dir, slots)
}

// recoverPCLLocks adopts the crashed node's GLA partitions at the
// coordinator and rebuilds their lock tables from the survivors'
// in-flight transactions. The state is reconstructed immediately — so
// no request ever sees a half-built table — while the communication
// and CPU costs of the rebuild are charged before recovery proceeds.
func (s *System) recoverPCLLocks(p *sim.Proc, coord *Node, crashed int) int64 {
	var parts []int
	for g := range s.tables {
		if s.glaHome[g] == crashed {
			parts = append(parts, g)
		}
	}
	if len(parts) == 0 {
		return 0
	}
	partSet := make(map[int]bool, len(parts))
	for _, g := range parts {
		s.glaHome[g] = coord.id
		tbl := lock.NewTable(s.dir)
		s.tables[g] = tbl
		s.detector.SetTable(g, tbl)
		s.partMeta[g] = 0
		partSet[g] = true
	}
	s.resetPartitions(partSet)

	var total int64
	for _, n := range s.nodes {
		if s.down[n.id] {
			continue
		}
		total += s.rebuildFromNode(n, partSet)
	}
	if s.params.RecoveryEntryInstr > 0 && total > 0 {
		coord.cpu.Exec(p, float64(total)*s.params.RecoveryEntryInstr)
	}
	// One reliable query/reply round trip per remote survivor models
	// the rebuild communication.
	wait := s.newWait(p)
	for i := range s.nodes {
		if i == coord.id || s.down[i] {
			continue
		}
		wait.needed++
		m := s.newMsg(msgRebuildQuery)
		m.wait = waitRef{w: wait, epoch: wait.epoch}
		s.net.SendReliable(p, coord.id, i, netsim.Short, m)
	}
	if wait.needed > 0 {
		p.Park()
	}
	s.endWait(wait)
	return total
}

// rebuildFromNode re-registers one survivor's granted locks on the
// lost partitions and conservatively drops its unfixed cached copies
// of those partitions (the coherency metadata proving them current
// died with the GLA), along with its read authorizations there.
func (s *System) rebuildFromNode(n *Node, parts map[int]bool) int64 {
	var owners []lock.Owner
	for o := range s.active {
		if o.Node == n.id {
			owners = append(owners, o)
		}
	}
	sort.Slice(owners, func(i, j int) bool { return owners[i].Tx < owners[j].Tx })
	var count int64
	// The owners are parked mid-attempt, possibly iterating their own
	// sort buffers, so the rebuild sorts into a buffer of its own.
	var slots []int32
	for _, o := range owners {
		t := s.active[o]
		slots = sortedSlots(s.dir, slots, &t.locked)
		for _, slot := range slots {
			g := s.glaOf(slot)
			if !parts[g] {
				continue
			}
			hl := t.locked.Get(slot)
			tbl := s.tables[g]
			_, granted := tbl.Request(slot, o, hl.mode, rebuildTag{})
			if !granted {
				// Cannot happen with a consistent snapshot; withdraw
				// defensively rather than strand the entry.
				tbl.CancelWaiting(o)
				continue
			}
			count++
			// Unmodified copies seed the rebuilt coherency metadata;
			// modified (uncommitted) versions do not — their sequence
			// number becomes authoritative only at commit.
			if t.modified.Get(slot).frame == nil {
				if copySeq, _ := n.copySeq(slot); copySeq > 0 {
					meta := s.pclMetaOf(g, slot)
					if copySeq > meta.Seq {
						meta.Seq = copySeq
					}
				}
			}
		}
	}
	var drops []int32
	n.pool.Pages(func(f *buffer.Frame[int32]) {
		if f.Fixed() || !s.db.File(s.dir.Page(f.Page).File).Locking {
			return
		}
		if parts[s.glaOf(f.Page)] {
			drops = append(drops, f.Page)
		}
	})
	for _, slot := range drops {
		n.pool.Drop(slot)
	}
	for i := int32(0); i < int32(s.dir.Len()); i++ {
		if s.raBit(i, s.raWords, n.id) && parts[s.glaOf(i)] {
			s.setRABit(i, s.raWords, n.id, false)
		}
	}
	return count
}

// dropNodeRAs clears a node out of the read authorization sets from
// word base on: the GLAs' grants (0) or the nodes' own views
// (raWords).
func (s *System) dropNodeRAs(base, node int) {
	for i := int32(0); i < int32(s.dir.Len()) && s.raWords > 0; i++ {
		s.setRABit(i, base, node, false)
	}
}

// resetPartitions forgets the lost partitions' state in the directory:
// their coherency metadata, lock entries and read authorization grants
// died with the GLA (survivors' own views are cleared during rebuild).
func (s *System) resetPartitions(parts map[int]bool) {
	for i := int32(0); i < int32(s.dir.Len()); i++ {
		m := s.dir.At(i)
		ra := s.dir.Words(i)[:s.raWords]
		if !m.Meta && m.Lock == 0 && !slices.ContainsFunc(ra, func(w uint64) bool { return w != 0 }) {
			continue
		}
		if parts[s.gla.GLA(m.Page)] {
			m.Seq, m.Owner, m.Meta, m.Lock = 0, -1, false, 0
			clear(ra)
		}
	}
}
