package node

import (
	"cmp"
	"slices"
	"sort"
	"strconv"
	"time"

	"gemsim/internal/attrib"
	"gemsim/internal/buffer"
	"gemsim/internal/cc"
	"gemsim/internal/cpusrv"
	"gemsim/internal/lock"
	"gemsim/internal/model"
	"gemsim/internal/netsim"
	"gemsim/internal/rng"
	"gemsim/internal/sim"
	"gemsim/internal/stats"
	"gemsim/internal/storage"
	"gemsim/internal/trace"
)

// Node is one processing node: transaction manager, buffer manager,
// concurrency control component, communication endpoint and CPU
// servers (Fig. 3.1 of the paper).
type Node struct {
	sys *System
	id  int
	// track is this node's track name in the event trace ("node<id>");
	// transaction, lock-wait and abort events land on it.
	track string

	cpu      *cpusrv.CPU
	pool     *buffer.Pool
	mpl      *sim.Semaphore
	logGroup *storage.Group
	cc       ccEngine
	// opt is the optimistic engine when one is configured (it is then
	// also cc); nil under native 2PL, which has no validation phase.
	opt *optEngine
	src *rng.Source

	// HISTORY insert state: every node appends to its own current
	// page (blocking factor inserts per page).
	historyPage int32
	historyFill int
	historySeq  int32

	// inflight tracks pages whose replacement write-back is under
	// way; the copy is still available in memory.
	inflight map[model.PageID]uint64
	// pendingReads coalesces concurrent misses on one page.
	pendingReads map[model.PageID][]*sim.Proc

	// raHeld is this node's view of its read authorizations (PCL).
	raHeld map[model.PageID]bool

	// active counts admitted-or-queued transactions (load control).
	active int

	// logSinceCkpt counts log pages written since the last fuzzy
	// checkpoint: the redo log scan length if this node crashes now.
	logSinceCkpt int64

	// Recycled per-transaction and write-back records.
	txns       sim.FreeList[txn]
	subs       sim.FreeList[submission]
	writeBacks sim.FreeList[writeBackRec]

	// Statistics (reset at the end of warm-up).
	commits       int64
	aborts        int64
	respRefs      int64
	resp          stats.Series
	respPerRef    stats.Series
	respByType    map[int]*stats.Series
	respHist      *stats.Histogram
	inputWait     stats.Series
	invalidations int64
	pageReqs      int64
	pageReqMiss   int64
	pageReqDelay  stats.Series
	localLocks    int64
	remoteLocks   int64
	lockWaits     int64
	lockWaitTime  stats.Series
	// Engine accounting: every execution attempt is admitted once;
	// aborted attempts restart, and the optimistic engines additionally
	// classify their aborts and validations.
	admitted          int64
	restarts          int64
	ccAborts          int64
	ccValidations     int64
	ccValidationFails int64
	forceWrites       int64
	logWrites         int64
	storageReads      int64
	storageWrites     int64
}

// lockKind records how a transaction acquired a lock, which determines
// the release path.
type lockKind int

const (
	kindLocal    lockKind = iota + 1 // GLT or local-GLA lock
	kindRemote                       // message-based lock at a remote GLA
	kindShadowRA                     // locally processed read lock under read authorization
)

// heldLock is a transaction's record of one acquired page lock. The
// zero value (kind 0) means no lock is held.
type heldLock struct {
	mode model.LockMode
	kind lockKind
}

// modRecord remembers a modified frame together with its pre-image
// metadata so that aborts can undo the modification exactly.
type modRecord struct {
	frame    *buffer.Frame
	preSeq   uint64
	preDirty bool
}

// txn is a transaction instance under execution. Records are pooled per
// node (Node.txns): runTxn takes one for a transaction, reuses it for
// every restart attempt and returns it when the transaction ends, with
// its maps and buffers emptied but kept. Nothing outside the running
// process refers to a record once its attempt has left System.active:
// lock queues and messages hold the attempt's remoteWait records, which
// are never pooled.
type txn struct {
	id     lock.TxID
	owner  lock.Owner
	node   *Node
	spec   model.Txn
	proc   *sim.Proc
	arrive sim.Time

	locked   map[model.PageID]heldLock
	modified map[model.PageID]modRecord

	// cct records the optimistic engines' observations; runTxn resets
	// it for each attempt.
	cct cc.Txn

	// pages is the attempt's buffer for sortedPages. It is per
	// transaction, not per node: commit parks while iterating it.
	pages []model.PageID

	waiting  *remoteWait
	deadlock bool
	// killed marks a transaction whose node crashed: it unwinds without
	// undo (its frames died with the buffer) and without releasing
	// locks (recovery does that).
	killed bool

	// cp is the response-time record: per-phase time and per-resource
	// (wait, service) attribution. It spans restart attempts and
	// resubmissions (the response time spans them all), and is nil
	// when attribution is off.
	cp *attrib.Vector
}

// txnKeepRefs bounds the transactions whose maps and buffers a pooled
// record keeps: a record that served a larger one (trace transactions
// reach thousands of references) drops them, so the pool does not pin
// the largest transaction ever seen once per record.
const txnKeepRefs = 128

// newTxn takes a pooled transaction record, or makes one.
func (n *Node) newTxn() *txn {
	if t := n.txns.Get(); t != nil {
		return t
	}
	return &txn{node: n}
}

// freeTxn returns t to the pool, keeping its maps and buffers (each
// attempt clears them when it starts).
func (n *Node) freeTxn(t *txn) {
	if len(t.spec.Refs) > txnKeepRefs {
		t.locked, t.modified, t.pages, t.cct = nil, nil, nil, cc.Txn{}
	}
	*t = txn{node: n, locked: t.locked, modified: t.modified, cct: t.cct, pages: t.pages[:0]}
	n.txns.Put(t)
}

// pageCmp orders page ids for deterministic iteration.
func pageCmp(a, b model.PageID) int {
	if a.File != b.File {
		return cmp.Compare(a.File, b.File)
	}
	return cmp.Compare(a.Page, b.Page)
}

// sortedPages returns the pages of a page-keyed map in a stable order
// (map iteration order would make runs nondeterministic), reusing buf.
func sortedPages[V any](buf []model.PageID, m map[model.PageID]V) []model.PageID {
	pages := buf[:0]
	for p := range m {
		pages = append(pages, p)
	}
	slices.SortFunc(pages, pageCmp)
	return pages
}

// sortedKeys returns the integer keys of a map in ascending order.
func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// newNode builds one processing node.
func newNode(s *System, id int) *Node {
	n := &Node{
		sys:          s,
		id:           id,
		track:        "node" + itoa(id),
		pool:         buffer.NewPool(s.params.BufferPages),
		respHist:     stats.NewDurationHistogram(),
		inflight:     make(map[model.PageID]uint64),
		pendingReads: make(map[model.PageID][]*sim.Proc),
		raHeld:       make(map[model.PageID]bool),
		respByType:   make(map[int]*stats.Series),
		src:          s.split.Stream("node" + itoa(id)),
		historyPage:  historyBase(id),
	}
	n.cpu = cpusrv.New(s.env, "cpu"+itoa(id), s.params.CPUsPerNode, s.params.MIPSPerCPU)
	n.mpl = sim.NewSemaphore(s.env, "mpl"+itoa(id), s.params.MPL)
	n.logGroup = storage.NewGroup(s.env, "log"+itoa(id), storage.DefaultLogParams())
	switch s.params.Coupling {
	case CouplingGEM:
		n.cc = &centralCC{n: n, instr: s.params.LockInstr, dev: s.gemDev.Entries(), cycles: 2, reread: true}
	case CouplingPCL:
		n.cc = &pclCC{n: n}
	case CouplingLockEngine:
		n.cc = &centralCC{n: n, dev: s.engine, cycles: 1, broadcast: true}
	}
	if s.params.CC != cc.KindDefault {
		n.opt = &optEngine{n: n, mvto: s.params.CC == cc.KindMVTO}
		if s.params.CC == cc.KindHAD {
			n.opt.native = n.cc
		}
		n.cc = n.opt
	}
	return n
}

// historyBase spaces per-node HISTORY page numbers far apart.
func historyBase(id int) int32 { return int32(id) * 100_000_000 }

func itoa(i int) string { return strconv.Itoa(i) }

// submit spawns a process executing one transaction at this node.
func (n *Node) submit(spec model.Txn) {
	sb := n.subs.Get()
	if sb == nil {
		sb = &submission{n: n}
		sb.run = sb.start
	}
	sb.spec, sb.arrive = spec, n.sys.env.Now()
	n.sys.env.Spawn("txn", sb.run)
}

// submission hands one arriving transaction to its process. Records
// are pooled per node with the process body bound once, so a submit
// allocates only the process record.
type submission struct {
	n      *Node
	spec   model.Txn
	arrive sim.Time
	run    func(p *sim.Proc) // bound to start
}

// start runs the transaction; the record is recycled first, as the
// process no longer needs it.
func (sb *submission) start(p *sim.Proc) {
	n, spec, arrive := sb.n, sb.spec, sb.arrive
	sb.spec = model.Txn{}
	n.subs.Put(sb)
	n.sys.runWithRetry(p, n, spec, arrive)
}

// runTxnCounted wraps runTxn with the activation accounting used by
// load-aware routing. It reports whether the transaction committed
// (false only when its node crashed under it).
func (n *Node) runTxnCounted(p *sim.Proc, spec model.Txn, arrive sim.Time, cp *attrib.Vector) bool {
	n.active++
	committed := n.runTxn(p, spec, arrive, cp)
	n.active--
	return committed
}

// runTxn is the transaction manager's main loop: admission, execution,
// restart on deadlock or timeout, statistics. It returns false when
// the transaction was killed by a node crash (the caller resubmits).
// cp, when non-nil, accumulates the response-time record across all
// attempts (and across resubmissions after a crash).
func (n *Node) runTxn(p *sim.Proc, spec model.Txn, arrive sim.Time, cp *attrib.Vector) bool {
	sys := n.sys
	entered := sys.env.Now()
	n.mpl.Acquire(p)
	if sys.faultsOn && sys.down[n.id] {
		// The node failed while the transaction queued for admission.
		n.mpl.Release()
		return false
	}
	n.inputWait.AddDuration(sys.env.Now() - arrive)
	cp.Charge(attrib.PhaseInput, attrib.ResOther, sys.env.Now()-entered, 0)
	timeouts := 0
	conflicts := 0
	t := n.newTxn()
	defer n.freeTxn(t)
	t.spec, t.proc, t.arrive, t.cp = spec, p, arrive, cp
	if t.locked == nil {
		t.locked = make(map[model.PageID]heldLock, len(spec.Refs))
		t.modified = make(map[model.PageID]modRecord, 4)
	}
	for {
		if sys.faultsOn && sys.down[n.id] {
			n.mpl.Release()
			return false
		}
		t.id = sys.nextTxID()
		t.owner = lock.Owner{Node: n.id, Tx: t.id}
		t.waiting, t.deadlock, t.killed = nil, false, false
		// A killed attempt skips releaseAll, and no attempt clears its
		// modified set.
		clear(t.locked)
		clear(t.modified)
		t.cct.Begin(int64(t.id))
		p.SetTraceID(int64(t.id))
		sys.active[t.owner] = t
		n.admitted++
		err := n.attempt(t)
		delete(sys.active, t.owner)
		if err == nil {
			break
		}
		if t.killed || err == errKilled {
			// Crash kill: no local undo (the frames died with the
			// buffer) and no lock release (recovery does that).
			p.SetTraceID(0)
			n.mpl.Release()
			return false
		}
		// Deadlock victim, lock-wait timeout or optimistic conflict:
		// undo, back off, restart as a younger transaction.
		abortStart := sys.env.Now()
		n.abortTxn(t)
		n.restarts++
		cp.AddPhase(attrib.PhaseCommit, sys.env.Now()-abortStart)
		if tr := sys.tracer; tr.Enabled() {
			reason := trace.AbortDeadlock
			if err == errTimeout {
				reason = trace.AbortTimeout
			} else if cf, ok := err.(*cc.Conflict); ok {
				reason = string(cf.Reason)
			}
			tr.Instant(n.track, int64(t.id), trace.TxnAbort, sys.env.Now(), reason)
		}
		delay := sys.params.RestartDelayMean
		if err == errTimeout {
			// Exponential back-off against repeated timeouts (the
			// conflict that caused them needs time to clear).
			delay = sys.params.retryDelay(timeouts)
			timeouts++
		} else if _, ok := err.(*cc.Conflict); ok {
			// Optimistic conflict: the same back-off discipline, so
			// repeated restarts on a hot page spread out instead of
			// colliding again (bounded at six doublings).
			n.ccAborts++
			delay = sys.params.retryDelay(conflicts)
			if conflicts < 6 {
				conflicts++
			}
		}
		backoffStart := sys.env.Now()
		p.Wait(time.Duration(n.src.Exp(delay.Seconds()) * float64(time.Second)))
		cp.Charge(attrib.PhaseBackoff, attrib.ResOther, sys.env.Now()-backoffStart, 0)
	}
	p.SetTraceID(0)
	n.mpl.Release()
	rt := sys.env.Now() - arrive
	sys.observeCommit(n, int64(t.id), cp, rt)
	if tr := sys.tracer; tr.Enabled() {
		tr.Span(n.track, int64(t.id), trace.TxnSpan, arrive, sys.env.Now(), "type="+strconv.Itoa(spec.Type))
	}
	n.commits++
	n.respRefs += int64(len(spec.Refs))
	n.resp.AddDuration(rt)
	if len(spec.Refs) > 0 {
		n.respPerRef.Add(rt.Seconds() / float64(len(spec.Refs)))
	}
	n.sys.rtBatches.Add(rt.Seconds())
	byType := n.respByType[spec.Type]
	if byType == nil {
		byType = &stats.Series{}
		n.respByType[spec.Type] = byType
	}
	byType.AddDuration(rt)
	n.respHist.AddDuration(rt)
	if sys.faultsOn {
		sys.classifyRT(sys.env.Now(), rt)
	}
	return true
}

// retryDelay is the mean back-off before a restart that follows
// retries earlier restarts of the same kind: RestartDelayMean doubled
// once per retry, capped at RetryBackoffCap when a cap is set.
func (p *Params) retryDelay(retries int) time.Duration {
	delay := p.RestartDelayMean
	for i := 0; i < retries && (p.RetryBackoffCap <= 0 || delay < p.RetryBackoffCap); i++ {
		delay *= 2
	}
	if cap := p.RetryBackoffCap; cap > 0 && delay > cap {
		delay = cap
	}
	return delay
}

// attempt executes the transaction once; it returns errDeadlock when
// the transaction must be rolled back and restarted.
func (n *Node) attempt(t *txn) error {
	params := &n.sys.params
	// Begin of transaction.
	cpuStart := n.sys.env.Now()
	instr := n.src.Exp(params.BOTInstr)
	n.cpu.Exec(t.proc, instr)
	t.cp.Charge(attrib.PhaseCPU, attrib.ResCPU, n.sys.env.Now()-cpuStart, n.cpu.ServiceTime(instr))

	for _, ref := range t.spec.Refs {
		if t.killed {
			return errKilled
		}
		ref = n.resolveRef(ref)
		file := n.sys.db.File(ref.Page.File)
		// CPU demand of the record access.
		cpuStart = n.sys.env.Now()
		instr = n.src.Exp(params.RefInstr)
		n.cpu.Exec(t.proc, instr)
		t.cp.Charge(attrib.PhaseCPU, attrib.ResCPU, n.sys.env.Now()-cpuStart, n.cpu.ServiceTime(instr))

		out := cc.Outcome{Owner: -1}
		firstTouch := true
		if file.Locking {
			mode := model.LockRead
			if ref.Write {
				mode = model.LockWrite
			}
			var err error
			out, firstTouch, err = n.cc.access(t, ref.Page, mode)
			if err != nil {
				return err
			}
		}
		_, preModified := t.modified[ref.Page]
		if obs := n.sys.pageObserver; obs != nil {
			obs(ref.Page)
		}
		frame := n.getPage(t, file, ref.Page, ref.Write, out, firstTouch)
		if ref.Write {
			n.markModified(t, frame)
		}
		// The record access is complete. A page keeps exactly one
		// sustained fix from its first modification until commit; all
		// other fixes are released here.
		if !ref.Write || preModified {
			frame.Unfix()
		}
	}

	// End of transaction.
	cpuStart = n.sys.env.Now()
	instr = n.src.Exp(params.EOTInstr)
	n.cpu.Exec(t.proc, instr)
	t.cp.Charge(attrib.PhaseCPU, attrib.ResCPU, n.sys.env.Now()-cpuStart, n.cpu.ServiceTime(instr))
	if t.killed {
		return errKilled
	}
	// Optimistic engines validate before the commit log write: a failed
	// attempt writes no log.
	if n.opt != nil {
		if err := n.opt.validate(t); err != nil {
			return err
		}
	}
	n.commit(t)
	return nil
}

// resolveRef substitutes this node's current HISTORY insert page for
// append-only references.
func (n *Node) resolveRef(ref model.Ref) model.Ref {
	if ref.Page.Page != model.AppendPage {
		return ref
	}
	f := n.sys.db.File(ref.Page.File)
	if n.historyFill == 0 {
		n.historySeq++
		n.historyPage = historyBase(n.id) + n.historySeq
	}
	n.historyFill++
	if n.historyFill == f.BlockingFactor {
		n.historyFill = 0
	}
	ref.Page.Page = n.historyPage
	return ref
}

// markModified pins the frame until commit, bumps its page sequence
// number and remembers the pre-image for undo.
func (n *Node) markModified(t *txn, frame *buffer.Frame) {
	if _, ok := t.modified[frame.Page]; ok {
		return
	}
	t.modified[frame.Page] = modRecord{frame: frame, preSeq: frame.SeqNo, preDirty: frame.Dirty}
	frame.SeqNo++
	frame.Dirty = true
}

// requestLock registers t's request for page in mode at tbl, a lock
// table this node processes itself (the central table, or a PCL
// partition it serves); ra marks a shadow read lock under read
// authorization. An ungranted request blocks t until the grant
// (blockForLock), and the wait is counted, timed, charged to t's record
// and traced. waited reports a wait; err is blockForLock's abort
// sentinel.
func (n *Node) requestLock(t *txn, tbl *lock.Table, page model.PageID, mode model.LockMode, ra bool) (waited bool, err error) {
	req, granted := tbl.Request(page, t.owner, mode, nil)
	if granted {
		return false, nil
	}
	// Only a queued request needs its continuation: the grant wakes
	// the waiter through req.Data.
	wait := &remoteWait{proc: t.proc, ra: ra}
	req.Data = wait
	sys := n.sys
	n.lockWaits++
	sys.noteFenceConflict(page)
	start := sys.env.Now()
	t.waiting = wait
	err = sys.blockForLock(t)
	t.waiting = nil
	if err == nil {
		n.lockWaitTime.AddDuration(sys.env.Now() - start)
	}
	n.lockWaitDone(t, page, start)
	return true, err
}

// commit performs two-phase commit processing: phase 1 writes the log
// data and, under FORCE, force-writes all modified pages (write-ahead:
// the log record precedes the data writes); phase 2 releases the
// transaction's locks and propagates the new page versions.
func (n *Node) commit(t *txn) {
	params := &n.sys.params
	if len(t.modified) > 0 {
		logStart := n.sys.env.Now()
		n.writeLog(t.proc, t.cp)
		t.cp.AddPhase(attrib.PhaseLog, n.sys.env.Now()-logStart)
		if params.Force {
			forceStart := n.sys.env.Now()
			t.pages = sortedPages(t.pages, t.modified)
			for _, page := range t.pages {
				mod := t.modified[page]
				file := n.sys.db.File(page.File)
				n.writeStorage(t.proc, t.cp, file, page, mod.frame.SeqNo)
				n.forceWrites++
				mod.frame.Dirty = false
			}
			t.cp.AddPhase(attrib.PhaseIOWrite, n.sys.env.Now()-forceStart)
		}
	}
	relStart := n.sys.env.Now()
	n.cc.releaseAll(t, true)
	t.cp.AddPhase(attrib.PhaseCommit, n.sys.env.Now()-relStart)
	for _, mod := range t.modified {
		mod.frame.Unfix()
	}
}

// abortTxn rolls the transaction back: locks released without version
// propagation, modified frames restored to their pre-images.
func (n *Node) abortTxn(t *txn) {
	n.aborts++
	n.cc.releaseAll(t, false)
	for _, mod := range t.modified {
		mod.frame.SeqNo = mod.preSeq
		mod.frame.Dirty = mod.preDirty
		mod.frame.Unfix()
	}
}

// getPage brings the page into the buffer (coherency controlled) and
// returns its frame, fixed. The caller unfixes it after the record
// access unless the page was modified.
func (n *Node) getPage(t *txn, file *model.File, page model.PageID, write bool, out cc.Outcome, firstTouch bool) *buffer.Frame {
	for {
		if fr := n.pool.Get(page); fr != nil {
			if fr.SeqNo >= out.Seq {
				if firstTouch {
					n.pool.Observe(file.ID, true)
				}
				fr.Fix()
				n.sys.oracle.checkAccess(page, fr.SeqNo, file.Locking)
				return fr
			}
			// Buffer invalidation: the cached copy is obsolete.
			n.invalidations++
			if !fr.Fixed() {
				n.pool.Drop(page)
				continue
			}
			// A concurrent optimistic transaction still has the stale
			// copy fixed (impossible under 2PL, where the committer's
			// write lock excludes readers until release): fetch the
			// current version and refresh the frame in place.
			fr = n.fetchMiss(t, file, page, write, out)
			fr.Fix()
			n.sys.oracle.checkAccess(page, fr.SeqNo, file.Locking)
			return fr
		}
		// A copy being written back is still available in memory.
		if seq, ok := n.inflight[page]; ok && seq >= out.Seq {
			if firstTouch {
				n.pool.Observe(file.ID, true)
			}
			fr := n.install(page, seq, false)
			fr.Fix()
			return fr
		}
		// Coalesce with a concurrent fetch of the same page.
		if waiters, pending := n.pendingReads[page]; pending {
			n.pendingReads[page] = append(waiters, t.proc)
			waitStart := n.sys.env.Now()
			t.proc.Park()
			t.cp.Charge(readPhase(file), attrib.ResBuf, n.sys.env.Now()-waitStart, 0)
			continue
		}
		if firstTouch {
			n.pool.Observe(file.ID, false)
		}
		fr := n.fetchMiss(t, file, page, write, out)
		fr.Fix()
		return fr
	}
}

// fetchMiss obtains a missing page: fresh HISTORY pages are allocated,
// carried pages (PCL) are installed directly, otherwise the page comes
// from the owning node (GEM locking, NOFORCE) or from storage.
func (n *Node) fetchMiss(t *txn, file *model.File, page model.PageID, write bool, out cc.Outcome) *buffer.Frame {
	if file.AppendOnly && out.Seq == 0 {
		if _, stored := n.sys.appendStored[page]; !stored {
			// First insert into a fresh page: no I/O, allocate in place.
			return n.install(page, 1, true)
		}
	}
	n.pendingReads[page] = nil
	seq := out.Seq
	got := out.Carried
	if !got && !n.sys.params.Force && out.Owner >= 0 && out.Owner != n.id {
		reqStart := n.sys.env.Now()
		if s, ok := n.requestPage(t, page, out.Owner, write); ok {
			seq, got = s, true
		}
		t.cp.AddPhase(attrib.PhasePageXfer, n.sys.env.Now()-reqStart)
	}
	if !got {
		ioStart := n.sys.env.Now()
		n.readStorage(t.proc, t.cp, file, page, out.Seq)
		t.cp.AddPhase(readPhase(file), n.sys.env.Now()-ioStart)
	}
	fr := n.install(page, seq, false)
	// Wake coalesced waiters.
	for _, w := range n.pendingReads[page] {
		w.Unpark()
	}
	delete(n.pendingReads, page)
	return fr
}

// install puts a page into the pool, scheduling a background write for
// a dirty replacement victim.
func (n *Node) install(page model.PageID, seq uint64, dirty bool) *buffer.Frame {
	fr, victim, evicted := n.pool.Insert(page, seq, dirty)
	if evicted && victim.Dirty {
		n.writeBack(victim)
	}
	return fr
}

// writeBack asynchronously writes a replaced dirty page to its storage
// medium. Under GEM locking (NOFORCE) the global lock table is updated
// afterwards so that future misses read from storage instead of asking
// this node.
func (n *Node) writeBack(v buffer.Victim) {
	n.inflight[v.Page] = v.SeqNo
	wb := n.writeBacks.Get()
	if wb == nil {
		wb = &writeBackRec{n: n}
		wb.run = wb.start
	}
	wb.v = v
	n.sys.env.Spawn("writeback", wb.run)
}

// writeBackRec hands one replaced dirty page to its write-back
// process, pooled like submission.
type writeBackRec struct {
	n   *Node
	v   buffer.Victim
	run func(p *sim.Proc) // bound to start
}

// start runs the write-back; the record is recycled first.
func (wb *writeBackRec) start(p *sim.Proc) {
	n, v := wb.n, wb.v
	n.writeBacks.Put(wb)
	n.writeBackPage(p, v)
}

// writeBackPage is the body of a write-back process.
func (n *Node) writeBackPage(p *sim.Proc, v buffer.Victim) {
	file := n.sys.db.File(v.Page.File)
	if n.sys.params.Coupling == CouplingGEM && !n.sys.params.Force && file.Locking {
		// Check ownership with the GLT (one entry read): if a newer
		// version exists elsewhere the stale copy must not reach the
		// disk.
		n.gemEntryOp(p, 0, 1)
		meta := n.sys.gltMetaOf(v.Page)
		if meta.Owner != n.id || meta.Seq != v.SeqNo {
			if cur, ok := n.inflight[v.Page]; ok && cur == v.SeqNo {
				delete(n.inflight, v.Page)
			}
			return
		}
		n.writeStorage(p, nil, file, v.Page, v.SeqNo)
		// Adapt the entry with one Compare&Swap write so future misses
		// read from the permanent database.
		n.gemEntryOp(p, 0, 1)
		if meta.Owner == n.id && meta.Seq == v.SeqNo {
			meta.Owner = -1
		}
	} else {
		n.writeStorage(p, nil, file, v.Page, v.SeqNo)
	}
	if cur, ok := n.inflight[v.Page]; ok && cur == v.SeqNo {
		delete(n.inflight, v.Page)
	}
}

// gemPageIO performs one synchronous GEM page access (the CPU stays
// busy throughout) including the reduced initialization overhead, as
// one CPU-held composite; the process parks once.
func (n *Node) gemPageIO(p *sim.Proc) {
	n.cpu.Hold(p.Continuation(), n.sys.params.GEMIOInstr, n.sys.gemDev.Page(), 1, nil)
	p.Park()
}

// gemEntryOp charges one CPU-held GEM entry-access composite: the CPU
// is acquired, instr instructions are charged while holding it
// (skipped when non-positive), the entries accesses queue at the GEM
// device, and the CPU is released. The process parks once.
func (n *Node) gemEntryOp(p *sim.Proc, instr float64, entries int) {
	n.cpu.Hold(p.Continuation(), instr, n.sys.gemDev.Entries(), entries, nil)
	p.Park()
}

// gemPageSvc returns the service demand of one gemPageIO composite:
// the held CPU burst plus the GEM page access. The remainder of a
// measured gemPageIO window is queueing (CPU or GEM device).
func (n *Node) gemPageSvc() time.Duration {
	return n.cpu.ServiceTime(n.sys.params.GEMIOInstr) + n.sys.gemDev.PageAccessTime()
}

// gemPageIOAttr runs gemPageIO and attributes the window to ResGEM on
// cp (wait = window minus the known composite service demand).
func (n *Node) gemPageIOAttr(p *sim.Proc, cp *attrib.Vector) {
	if cp == nil {
		n.gemPageIO(p)
		return
	}
	start := n.sys.env.Now()
	n.gemPageIO(p)
	cp.AddWindow(attrib.ResGEM, n.sys.env.Now()-start, n.gemPageSvc())
}

// diskReadAttr charges the I/O CPU overhead and reads the page from
// the file's disk group, attributing the window to ResDisk on cp.
func (n *Node) diskReadAttr(p *sim.Proc, cp *attrib.Vector, file *model.File, page model.PageID) {
	group := n.sys.groups[file.ID]
	start := n.sys.env.Now()
	n.cpu.Exec(p, n.sys.params.IOInstr)
	hit := group.Read(p, page)
	if cp != nil {
		svc := n.cpu.ServiceTime(n.sys.params.IOInstr) + group.ReadServiceTime(hit)
		cp.AddWindow(attrib.ResDisk, n.sys.env.Now()-start, svc)
	}
}

// readStorage performs one page read from the file's storage medium,
// charging the I/O CPU overhead. cp, when non-nil, receives the
// critical-path attribution (GEM vs disk); background readers pass
// nil.
func (n *Node) readStorage(p *sim.Proc, cp *attrib.Vector, file *model.File, page model.PageID, expectSeq uint64) {
	n.storageReads++
	switch file.Medium {
	case model.MediumGEM:
		n.gemPageIOAttr(p, cp)
	case model.MediumGEMWriteBuffer:
		// A recently written page may still sit in the GEM write
		// buffer; read it from there at GEM speed.
		if _, ok := n.sys.writeBuffer[page]; ok {
			n.sys.wbReadHits++
			n.gemPageIOAttr(p, cp)
		} else {
			n.diskReadAttr(p, cp, file, page)
		}
	case model.MediumGEMCache:
		// Intermediate caching level in GEM: hits cost one page
		// access; misses read from disk and install the page into the
		// GEM cache (one additional page write).
		cache := n.sys.gemCaches[file.ID]
		n.sys.gemCacheReqs++
		if cache.Get(page) != nil {
			n.sys.gemCacheHits++
			n.gemPageIOAttr(p, cp)
		} else {
			n.diskReadAttr(p, cp, file, page)
			n.gemPageIOAttr(p, cp) // install into the GEM cache
			n.gemCacheInsert(file, page, false)
		}
	default:
		n.diskReadAttr(p, cp, file, page)
	}
	n.sys.oracle.checkStorageRead(page, expectSeq, file.Locking)
}

// writeStorage performs one page write to the file's storage medium.
// cp, when non-nil, receives the critical-path attribution.
func (n *Node) writeStorage(p *sim.Proc, cp *attrib.Vector, file *model.File, page model.PageID, seq uint64) {
	n.storageWrites++
	switch file.Medium {
	case model.MediumGEM:
		n.gemPageIOAttr(p, cp)
	case model.MediumGEMCache:
		// The non-volatile GEM cache absorbs the write; the disk copy
		// is updated when the dirty entry is replaced.
		n.gemPageIOAttr(p, cp)
		n.gemCacheInsert(file, page, true)
	case model.MediumGEMWriteBuffer:
		// Write into the non-volatile GEM write buffer; the disk copy
		// is updated asynchronously and the buffer entry is released
		// once the disk write completed.
		n.gemPageIOAttr(p, cp)
		n.sys.wbWrites++
		sys := n.sys
		if cur, ok := sys.writeBuffer[page]; !ok || seq > cur {
			sys.writeBuffer[page] = seq
			sys.env.Spawn("wb-destage", func(q *sim.Proc) {
				n.cpu.Exec(q, sys.params.IOInstr)
				sys.groups[file.ID].Write(q, page)
				if cur, ok := sys.writeBuffer[page]; ok && cur == seq {
					delete(sys.writeBuffer, page)
				}
			})
		}
	default:
		group := n.sys.groups[file.ID]
		start := n.sys.env.Now()
		n.cpu.Exec(p, n.sys.params.IOInstr)
		absorbed := group.Write(p, page)
		if cp != nil {
			svc := n.cpu.ServiceTime(n.sys.params.IOInstr) + group.WriteServiceTime(absorbed)
			cp.AddWindow(attrib.ResDisk, n.sys.env.Now()-start, svc)
		}
	}
	if file.AppendOnly {
		n.sys.appendStored[page] = struct{}{}
	}
	n.sys.oracle.storageWrite(page, seq)
}

// gemCacheInsert places a page into the file's GEM cache, destaging a
// replaced dirty entry to disk in the background.
func (n *Node) gemCacheInsert(file *model.File, page model.PageID, dirty bool) {
	_, victim, evicted := n.sys.gemCaches[file.ID].Insert(page, 0, dirty)
	if evicted && victim.Dirty {
		sys := n.sys
		sys.env.Spawn("gemcache-destage", func(q *sim.Proc) {
			// Read the page out of GEM and write it to disk.
			n.gemPageIO(q)
			n.cpu.Exec(q, sys.params.IOInstr)
			sys.groups[file.ID].Write(q, victim.Page)
		})
	}
}

// writeLog writes the transaction's log data (one page) at commit. cp,
// when non-nil, receives the critical-path attribution.
func (n *Node) writeLog(p *sim.Proc, cp *attrib.Vector) {
	n.logWrites++
	n.logSinceCkpt++
	if n.sys.params.LogInGEM {
		n.gemPageIOAttr(p, cp)
		if n.sys.params.GlobalLogMerge {
			n.sys.unmergedLogPages++
		}
		return
	}
	start := n.sys.env.Now()
	n.cpu.Exec(p, n.sys.params.IOInstr)
	absorbed := n.logGroup.Write(p, model.PageID{File: -1, Page: int32(n.id)})
	if cp != nil {
		svc := n.cpu.ServiceTime(n.sys.params.IOInstr) + n.logGroup.WriteServiceTime(absorbed)
		cp.AddWindow(attrib.ResDisk, n.sys.env.Now()-start, svc)
	}
}

// requestPage asks the owning node for the current page version (GEM
// locking, NOFORCE). It returns the received sequence number, or ok ==
// false if the owner no longer buffers the page (then the permanent
// database is current).
func (n *Node) requestPage(t *txn, page model.PageID, owner int, write bool) (uint64, bool) {
	sys := n.sys
	if sys.faultsOn && (sys.down[owner] || sys.down[n.id]) {
		// The owner (or this node) is down: fall back to storage.
		// Committed versions lost with the owner's buffer are redone
		// during its recovery; until then the page is fenced.
		return 0, false
	}
	n.pageReqs++
	start := sys.env.Now()
	wait := &remoteWait{proc: t.proc}
	sys.net.Send(t.proc, n.id, owner, netsim.Short, pageRequestMsg{
		Page: page, Requester: n.id, Transfer: write, Wait: wait,
	})
	if armed := sys.faultsOn && sys.params.LockWaitTimeout > 0; armed {
		t.proc.UnparkAfter(sys.params.LockWaitTimeout)
	}
	t.waiting = wait
	t.proc.Park()
	t.waiting = nil
	// The round trip is message latency plus remote processing: pure
	// network waiting from this transaction's point of view.
	t.cp.Add(attrib.ResNet, sys.env.Now()-start, 0)
	if t.killed || (sys.faultsOn && sys.params.LockWaitTimeout > 0 && !wait.woken) {
		// Crash, lost request or lost reply: fall back to storage.
		wait.abandoned = true
		n.pageReqMiss++
		return 0, false
	}
	if n.sys.params.GEMPageTransfer && wait.found {
		// Exchange across GEM: the owner deposited the page in GEM
		// (modelled at the owner); read it back synchronously.
		n.gemPageIOAttr(t.proc, t.cp)
	}
	if !wait.found {
		n.pageReqMiss++
		return 0, false
	}
	n.pageReqDelay.AddDuration(n.sys.env.Now() - start)
	return wait.seq, true
}

// resetStats clears this node's measurement counters.
func (n *Node) resetStats() {
	n.cpu.ResetStats()
	n.pool.ResetStats()
	n.logGroup.ResetStats()
	n.mpl.ResetStats()
	n.commits, n.aborts = 0, 0
	n.respRefs = 0
	n.resp.Reset()
	n.respPerRef.Reset()
	for _, s := range n.respByType {
		s.Reset()
	}
	n.respHist.Reset()
	n.inputWait.Reset()
	n.invalidations = 0
	n.pageReqs, n.pageReqMiss = 0, 0
	n.pageReqDelay.Reset()
	n.localLocks, n.remoteLocks = 0, 0
	n.lockWaits = 0
	n.lockWaitTime.Reset()
	n.admitted, n.restarts = 0, 0
	n.ccAborts, n.ccValidations, n.ccValidationFails = 0, 0, 0
	n.forceWrites, n.logWrites = 0, 0
	n.storageReads, n.storageWrites = 0, 0
}

// respHistInto merges this node's response time histogram into h.
func (n *Node) respHistInto(h *stats.Histogram) { h.Merge(n.respHist) }

// Pool exposes the buffer pool (tests and diagnostics).
func (n *Node) Pool() *buffer.Pool { return n.pool }

// CPU exposes the CPU complex (tests and diagnostics).
func (n *Node) CPU() *cpusrv.CPU { return n.cpu }
