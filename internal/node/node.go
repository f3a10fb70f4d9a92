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
	"gemsim/internal/flatmap"
	"gemsim/internal/lock"
	"gemsim/internal/model"
	"gemsim/internal/netsim"
	"gemsim/internal/pagedir"
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
	pool     *buffer.Pool[int32] // keyed by directory slot
	gate     *gate
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
	// way, with the copy's sequence number (never zero: the page was
	// dirty); the copy is still available in memory. Keyed by slot.
	inflight flatmap.Map[int32, uint64]
	// pendingReads coalesces concurrent misses on one page: keyed by
	// slot, it holds an entry while a fetch of the page is under way.
	// The processes waiting for a fetch are a list of waitLists (index
	// 0 stands for none yet); freeLists recycles the lists.
	pendingReads flatmap.Map[int32, pendingRead]
	waitLists    [][]*sim.Proc
	freeLists    []int32

	// active counts the transactions admitted at or queued in this
	// node's gate (load control).
	active int

	// logSinceCkpt counts log pages written since the last fuzzy
	// checkpoint: the redo log scan length if this node crashes now.
	logSinceCkpt int64

	// Recycled per-transaction records.
	txns sim.FreeList[txn]
	subs sim.FreeList[submission]

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

// pendingRead is one page fetch under way: pending is always set, so
// that the entry is present (a flat map's zero value is absence), and
// waiters is its list in waitLists, or 0.
type pendingRead struct {
	pending bool
	waiters int32
}

// lockKind records how a transaction acquired a lock, which determines
// the release path.
type lockKind uint8

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
	frame    *buffer.Frame[int32]
	preSeq   uint64
	preDirty bool
}

// txn is a transaction instance under execution. Records are pooled per
// node (Node.txns): runTxn takes one for a transaction, reuses it for
// every restart attempt and returns it when the transaction ends, with
// its maps and buffers emptied but kept. Nothing outside the running
// process refers to a record once its attempt has left System.active:
// lock queues and messages hold only generation-checked references to
// the attempt's wait records. Each attempt gets a fresh owner, whose
// handle reference the attempt drops when it has released its locks;
// the tables, messages and recovery that still name the owner hold
// references of their own (lock.Owners).
type txn struct {
	id     lock.TxID
	owner  lock.Owner
	node   *Node
	spec   model.Txn
	proc   *sim.Proc
	arrive sim.Time

	// locked, modified and observed are keyed by directory slot.
	// observed holds the optimistic engines' observations and is made
	// only when one is configured.
	locked   flatmap.Map[int32, heldLock]
	modified flatmap.Map[int32, modRecord]
	observed flatmap.Map[int32, observation]

	// pages is the attempt's buffer of slots in page order
	// (sortedSlots), and out (see partitions) the ones for pages bound
	// for partitions' messages. They are per transaction, not per node:
	// commit parks while iterating them.
	pages []int32
	out   [][]msgPage

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

// observation is an optimistic engine's record of one page an attempt
// accessed without a lock: the committed sequence number (OCC) or
// version write timestamp (MV-TO) it observed, which validation
// re-checks, and the access mode. The mode is never zero, so a base
// version observed at sequence number 0 is still present in the map.
type observation struct {
	version uint64
	mode    model.LockMode
}

// txnKeepRefs bounds the transactions whose maps a pooled record
// keeps, and the capacity of each page buffer it keeps: a record drops
// the maps of a larger transaction (trace transactions reach thousands
// of references) and any buffer that grew past the bound, so the pool
// does not pin the largest transaction ever seen once per record.
const txnKeepRefs = 128

// newTxn takes a pooled transaction record, or makes one.
func (n *Node) newTxn() *txn {
	if t := n.txns.Get(); t != nil {
		return t
	}
	t := &txn{node: n}
	n.makeTxnMaps(t)
	return t
}

// makeTxnMaps gives t empty per-attempt maps.
func (n *Node) makeTxnMaps(t *txn) {
	t.locked, t.modified = flatmap.Make[int32, heldLock](flatmap.Int32, 0), flatmap.Make[int32, modRecord](flatmap.Int32, 0)
	if n.opt != nil {
		t.observed = flatmap.Make[int32, observation](flatmap.Int32, 0)
	}
}

// freeTxn returns t to the pool, keeping its maps and buffers (each
// attempt clears them when it starts).
func (n *Node) freeTxn(t *txn) {
	if len(t.spec.Refs) > txnKeepRefs {
		n.makeTxnMaps(t)
	}
	if cap(t.pages) > txnKeepRefs {
		t.pages = nil
	}
	for i, buf := range t.out {
		if cap(buf) > txnKeepRefs {
			t.out[i] = nil
		}
	}
	*t = txn{node: n, locked: t.locked, modified: t.modified, observed: t.observed, pages: t.pages[:0], out: t.out}
	n.txns.Put(t)
}

// pageCmp orders page ids for deterministic iteration.
func pageCmp(a, b model.PageID) int {
	if a.File != b.File {
		return cmp.Compare(a.File, b.File)
	}
	return cmp.Compare(a.Page, b.Page)
}

// sortedSlots returns the slots present in m in page order (table order
// depends on the slot numbers), reusing buf.
func sortedSlots[V comparable](d *pagedir.Dir, buf []int32, m *flatmap.Map[int32, V]) []int32 {
	return sortSlots(d, m.AppendKeys(buf[:0]))
}

// sortSlots orders slots by page.
func sortSlots(d *pagedir.Dir, slots []int32) []int32 {
	slices.SortFunc(slots, func(a, b int32) int { return pageCmp(d.Page(a), d.Page(b)) })
	return slots
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
		pool:         buffer.NewPool(s.params.BufferPages, flatmap.Int32),
		respHist:     stats.NewDurationHistogram(),
		inflight:     flatmap.Make[int32, uint64](flatmap.Int32, 0),
		pendingReads: flatmap.Make[int32, pendingRead](flatmap.Int32, 0),
		waitLists:    make([][]*sim.Proc, 1),
		respByType:   make(map[int]*stats.Series),
		src:          s.split.Stream("node" + itoa(id)),
		historyPage:  historyBase(id),
	}
	n.cpu = cpusrv.New(s.env, "cpu"+itoa(id), s.params.CPUsPerNode, s.params.MIPSPerCPU)
	n.gate = newGate(s.env, "mpl"+itoa(id), s.params.MPL, n.spawn)
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

// admit hands fresh work from either source to this node's gate.
func (n *Node) admit(spec model.Txn) {
	n.active++
	n.gate.admit(spec)
}

// spawn starts a process for fresh work the gate admitted.
func (n *Node) spawn(it gateItem) {
	sb := n.subs.Get()
	if sb == nil {
		sb = &submission{n: n}
		sb.run = sb.start
	}
	sb.spec, sb.arrive = it.spec, it.at
	n.sys.env.Spawn("txn", sb.run)
}

// submission hands one admitted transaction to its process. Records
// are pooled per node with the process body bound once, so a spawn
// allocates only the process record.
type submission struct {
	n      *Node
	spec   model.Txn
	arrive sim.Time
	run    func(p *sim.Proc) // bound to start
}

// start runs the transaction, then returns a closed-loop terminal to
// thinking; the record is recycled first, as the process no longer
// needs it.
func (sb *submission) start(p *sim.Proc) {
	n, spec, arrive := sb.n, sb.spec, sb.arrive
	sb.spec = model.Txn{}
	n.subs.Put(sb)
	n.sys.runWithRetry(p, n, spec, arrive)
	if pt := n.sys.terminals; pt != nil {
		pt.scheduleThink()
	}
}

// runTxn is the transaction manager's main loop: execution, restart on
// deadlock or timeout, statistics. The caller holds a slot of the
// node's gate, taken at entered (the arrival, for fresh work); runTxn
// frees it. It returns false when the transaction was killed by a node
// crash (the caller resubmits). cp, when non-nil, accumulates the
// response-time record across all attempts (and across resubmissions
// after a crash).
func (n *Node) runTxn(p *sim.Proc, spec model.Txn, arrive, entered sim.Time, cp *attrib.Vector) bool {
	sys := n.sys
	if sys.faultsOn && sys.down[n.id] {
		// The node failed while the transaction queued for admission.
		n.gate.release()
		return false
	}
	n.inputWait.AddDuration(sys.env.Now() - arrive)
	cp.Charge(attrib.PhaseInput, attrib.ResOther, sys.env.Now()-entered, 0)
	timeouts := 0
	conflicts := 0
	t := n.newTxn()
	defer n.freeTxn(t)
	t.spec, t.proc, t.arrive, t.cp = spec, p, arrive, cp
	for {
		if sys.faultsOn && sys.down[n.id] {
			n.gate.release()
			return false
		}
		t.id = sys.nextTxID()
		t.owner = sys.owners.New(n.id, t.id)
		t.waiting, t.deadlock, t.killed = nil, false, false
		// A killed attempt skips releaseAll, and no attempt clears its
		// modified set.
		t.locked.Reset(len(spec.Refs))
		t.modified.Reset(0)
		if n.opt != nil {
			t.observed.Reset(len(spec.Refs))
		}
		p.SetTraceID(int64(t.id))
		sys.activate(t)
		n.admitted++
		err := n.attempt(t)
		sys.deactivate(t)
		if err == nil {
			sys.owners.Release(t.owner)
			break
		}
		if t.killed || err == errKilled {
			// Crash kill: no local undo (the frames died with the
			// buffer) and no lock release (recovery does that, its
			// losers list holding the owner).
			sys.owners.Release(t.owner)
			p.SetTraceID(0)
			n.gate.release()
			return false
		}
		// Deadlock victim, lock-wait timeout or optimistic conflict:
		// undo, back off, restart as a younger transaction.
		abortStart := sys.env.Now()
		n.abortTxn(t)
		sys.owners.Release(t.owner)
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
	n.gate.release()
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
		slot := n.sys.dir.Of(ref.Page)
		fi := n.sys.db.FileIndex(ref.Page.File)
		file := &n.sys.db.Files[fi]
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
			out, firstTouch, err = n.cc.access(t, slot, mode)
			if err != nil {
				return err
			}
		}
		preModified := t.modified.Get(slot).frame != nil
		if obs := n.sys.pageObserver; obs != nil {
			obs(slot)
		}
		frame := n.getPage(t, fi, slot, out, firstTouch)
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
func (n *Node) markModified(t *txn, frame *buffer.Frame[int32]) {
	if t.modified.Get(frame.Page).frame != nil {
		return
	}
	t.modified.Put(frame.Page, modRecord{frame: frame, preSeq: frame.SeqNo, preDirty: frame.Dirty})
	frame.SeqNo++
	frame.Dirty = true
}

// requestLock registers t's request for the page in slot in mode at tbl, a lock
// table this node processes itself (the central table, or a PCL
// partition it serves). An ungranted request blocks t until the grant
// (blockForLock), and the wait is counted, timed, charged to t's record
// and traced. waited reports a wait; err is blockForLock's abort
// sentinel.
func (n *Node) requestLock(t *txn, tbl *lock.Table, slot int32, mode model.LockMode) (waited bool, err error) {
	req, granted := tbl.Request(slot, t.owner, mode, nil)
	if granted {
		return false, nil
	}
	// Only a queued request needs its continuation: the grant wakes
	// the waiter through req.Data.
	sys := n.sys
	wait := sys.newWait(t.proc)
	req.Data, req.Epoch = wait, wait.epoch
	n.lockWaits++
	sys.noteFenceConflict(slot)
	start := sys.env.Now()
	t.waiting = wait
	err = sys.blockForLock(t)
	t.waiting = nil
	sys.endWait(wait)
	if err == nil {
		n.lockWaitTime.AddDuration(sys.env.Now() - start)
	}
	n.lockWaitDone(t, slot, start)
	return true, err
}

// commit performs two-phase commit processing: phase 1 writes the log
// data and, under FORCE, force-writes all modified pages (write-ahead:
// the log record precedes the data writes); phase 2 releases the
// transaction's locks and propagates the new page versions.
func (n *Node) commit(t *txn) {
	params := &n.sys.params
	if t.modified.Len() > 0 {
		logStart := n.sys.env.Now()
		n.writeLog(t.proc, t.cp)
		t.cp.AddPhase(attrib.PhaseLog, n.sys.env.Now()-logStart)
		if params.Force {
			forceStart := n.sys.env.Now()
			t.pages = sortedSlots(n.sys.dir, t.pages, &t.modified)
			for _, slot := range t.pages {
				mod := t.modified.Get(slot)
				file := n.sys.db.File(n.sys.dir.Page(slot).File)
				n.writeStorage(t.proc, t.cp, file, slot, mod.frame.SeqNo)
				n.forceWrites++
				mod.frame.Dirty = false
			}
			t.cp.AddPhase(attrib.PhaseIOWrite, n.sys.env.Now()-forceStart)
		}
	}
	// The release window is commit time, less the phases charged
	// inside it (an optimistic engine's publication burst).
	relStart, charged := n.sys.env.Now(), t.cp.PhaseSum()
	n.cc.releaseAll(t, true)
	t.cp.AddPhase(attrib.PhaseCommit, n.sys.env.Now()-relStart-(t.cp.PhaseSum()-charged))
	t.pages = t.modified.AppendKeys(t.pages[:0])
	for _, slot := range t.pages {
		t.modified.Get(slot).frame.Unfix()
	}
}

// abortTxn rolls the transaction back: locks released without version
// propagation, modified frames restored to their pre-images.
func (n *Node) abortTxn(t *txn) {
	n.aborts++
	n.cc.releaseAll(t, false)
	t.pages = t.modified.AppendKeys(t.pages[:0])
	for _, slot := range t.pages {
		mod := t.modified.Get(slot)
		mod.frame.SeqNo = mod.preSeq
		mod.frame.Dirty = mod.preDirty
		mod.frame.Unfix()
	}
}

// getPage brings the page into the buffer (coherency controlled) and
// returns its frame, fixed. The page is in the file at position fi of
// the database. The caller unfixes it after the record access unless
// the page was modified.
func (n *Node) getPage(t *txn, fi int, slot int32, out cc.Outcome, firstTouch bool) *buffer.Frame[int32] {
	file := &n.sys.db.Files[fi]
	for {
		if fr := n.pool.Get(slot); fr != nil {
			if fr.SeqNo >= out.Seq {
				if firstTouch {
					n.pool.Observe(fi, true)
				}
				fr.Fix()
				n.sys.oracle.checkAccess(n.sys.dir.Page(slot), fr.SeqNo, file.Locking)
				return fr
			}
			// Buffer invalidation: the cached copy is obsolete.
			n.invalidations++
			if !fr.Fixed() {
				n.pool.Drop(slot)
				continue
			}
			// A concurrent optimistic transaction still has the stale
			// copy fixed (impossible under 2PL, where the committer's
			// write lock excludes readers until release): fetch the
			// current version and refresh the frame in place.
			fr = n.fetchMiss(t, file, slot, out)
			fr.Fix()
			n.sys.oracle.checkAccess(n.sys.dir.Page(slot), fr.SeqNo, file.Locking)
			return fr
		}
		// A copy being written back is still available in memory.
		if seq := n.inflight.Get(slot); seq != 0 && seq >= out.Seq {
			if firstTouch {
				n.pool.Observe(fi, true)
			}
			fr := n.install(slot, seq, false)
			fr.Fix()
			return fr
		}
		// Coalesce with a concurrent fetch of the same page.
		if pr := n.pendingReads.Get(slot); pr.pending {
			if pr.waiters == 0 {
				pr.waiters = n.newWaitList()
				n.pendingReads.Put(slot, pr)
			}
			n.waitLists[pr.waiters] = append(n.waitLists[pr.waiters], t.proc)
			waitStart := n.sys.env.Now()
			t.proc.Park()
			t.cp.Charge(readPhase(file), attrib.ResBuf, n.sys.env.Now()-waitStart, 0)
			continue
		}
		if firstTouch {
			n.pool.Observe(fi, false)
		}
		fr := n.fetchMiss(t, file, slot, out)
		fr.Fix()
		return fr
	}
}

// fetchMiss obtains a missing page: fresh HISTORY pages are allocated,
// carried pages (PCL) are installed directly, otherwise the page comes
// from the owning node (GEM locking, NOFORCE) or from storage.
func (n *Node) fetchMiss(t *txn, file *model.File, slot int32, out cc.Outcome) *buffer.Frame[int32] {
	if file.AppendOnly && out.Seq == 0 && !n.sys.dir.At(slot).Stored {
		// First insert into a fresh page: no I/O, allocate in place.
		return n.install(slot, 1, true)
	}
	n.startRead(slot)
	seq := out.Seq
	got := out.Carried
	if !got && !n.sys.params.Force && out.Owner >= 0 && out.Owner != n.id {
		reqStart := n.sys.env.Now()
		if s, ok := n.requestPage(t, slot, out.Owner); ok {
			seq, got = s, true
		}
		t.cp.AddPhase(attrib.PhasePageXfer, n.sys.env.Now()-reqStart)
	}
	if !got {
		ioStart := n.sys.env.Now()
		n.readStorage(t.proc, t.cp, file, slot, out.Seq)
		t.cp.AddPhase(readPhase(file), n.sys.env.Now()-ioStart)
	}
	fr := n.install(slot, seq, false)
	n.endRead(slot)
	return fr
}

// startRead marks a fetch of the page in slot under way. A fetch that
// finds one under way already (an optimistic refresh of a fixed stale
// copy) starts the waiter list afresh, as the map it replaced did: the
// misses queued on the earlier fetch drop out of it and stay parked.
func (n *Node) startRead(slot int32) {
	if pr := n.pendingReads.Get(slot); pr.waiters != 0 {
		n.freeWaitList(pr.waiters)
	}
	n.pendingReads.Put(slot, pendingRead{pending: true})
}

// endRead ends the fetches of the page in slot under way: the waiters
// coalesced on them resume.
func (n *Node) endRead(slot int32) {
	pr := n.pendingReads.Get(slot)
	n.pendingReads.Delete(slot)
	if pr.waiters != 0 {
		for _, w := range n.waitLists[pr.waiters] {
			w.Unpark()
		}
		n.freeWaitList(pr.waiters)
	}
}

// newWaitList returns an empty list of waitLists.
func (n *Node) newWaitList() int32 {
	if k := len(n.freeLists); k > 0 {
		l := n.freeLists[k-1]
		n.freeLists = n.freeLists[:k-1]
		return l
	}
	n.waitLists = append(n.waitLists, nil)
	return int32(len(n.waitLists) - 1)
}

// freeWaitList empties list l and recycles it.
func (n *Node) freeWaitList(l int32) {
	clear(n.waitLists[l])
	n.waitLists[l] = n.waitLists[l][:0]
	n.freeLists = append(n.freeLists, l)
}

// install puts a page into the pool. A dirty replacement victim is
// written back in the background, its copy available in memory
// (inflight) until the write completed.
func (n *Node) install(slot int32, seq uint64, dirty bool) *buffer.Frame[int32] {
	fr, v, evicted := n.pool.Insert(slot, seq, dirty)
	if evicted && v.Dirty {
		n.inflight.Put(v.Page, v.SeqNo)
		n.newOp(sim.Continuation{}, nil, v.Page, v.SeqNo).background((*pageOp).writeBack)
	}
	return fr
}

// gemPageIO performs one synchronous GEM page access on p's behalf, a
// page-I/O record's GEM step; p parks once. cp, when non-nil, receives
// the window.
func (n *Node) gemPageIO(p *sim.Proc, cp *attrib.Vector) {
	w := n.newOp(p.Continuation(), cp, -1, 0)
	w.gem(nil)
	p.Park()
	n.freeOp(w)
}

// gemEntryOp charges one CPU-held GEM entry-access composite: the CPU
// is acquired, instr instructions are charged while holding it
// (skipped when non-positive), the entries accesses queue at the GEM
// device, and the CPU is released. The process parks once.
func (n *Node) gemEntryOp(p *sim.Proc, instr float64, entries int) {
	n.cpu.Hold(p.Continuation(), instr, n.sys.gemDev.Entries(), entries, nil)
	p.Park()
}

// readStorage performs one page read from the file's storage medium:
// the read chain runs on p's behalf and p parks once. cp, when
// non-nil, receives the critical-path attribution (GEM vs disk);
// background readers pass nil.
func (n *Node) readStorage(p *sim.Proc, cp *attrib.Vector, file *model.File, slot int32, expectSeq uint64) {
	w := n.newOp(p.Continuation(), cp, slot, 0)
	w.read()
	p.Park()
	n.freeOp(w)
	n.sys.oracle.checkStorageRead(n.sys.dir.Page(slot), expectSeq, file.Locking)
}

// writeStorage performs one page write to the file's storage medium:
// the write chain runs on p's behalf and p parks once. cp, when
// non-nil, receives the critical-path attribution.
func (n *Node) writeStorage(p *sim.Proc, cp *attrib.Vector, file *model.File, slot int32, seq uint64) {
	w := n.newOp(p.Continuation(), cp, slot, seq)
	w.write()
	p.Park()
	n.freeOp(w)
}

// logIO reads or writes one page of owner's log on p's behalf and this
// node's CPU (a recovery coordinator reads a failed node's log): a GEM
// page access, or the I/O CPU burst and an access to owner's log group;
// p parks once. cp, when non-nil, receives the attribution.
func (n *Node) logIO(p *sim.Proc, cp *attrib.Vector, owner *Node, write bool) {
	w := n.newOp(p.Continuation(), cp, -1, 0)
	w.page = model.PageID{File: -1, Page: int32(owner.id)}
	if n.sys.params.LogInGEM {
		w.gem(nil)
	} else {
		w.group, w.writing = owner.logGroup, write
		w.disk(w.cont, nil)
	}
	p.Park()
	n.freeOp(w)
}

// writeLog writes the transaction's log data (one page) at commit. cp,
// when non-nil, receives the critical-path attribution.
func (n *Node) writeLog(p *sim.Proc, cp *attrib.Vector) {
	n.logWrites++
	n.logSinceCkpt++
	n.logIO(p, cp, n, true)
	if n.sys.params.GlobalLogMerge {
		n.sys.unmergedLogPages++
	}
}

// gemCacheInsert places a page into the file's GEM cache; a replaced
// dirty entry is read out of GEM and destaged in the background.
func (n *Node) gemCacheInsert(file *model.File, slot int32, dirty bool) {
	if _, victim, evicted := n.sys.gemCaches[file.ID].Insert(slot, 0, dirty); evicted && victim.Dirty {
		n.newOp(sim.Continuation{}, nil, victim.Page, 0).background((*pageOp).readGEM)
	}
}

// pageOp is one page I/O on the callback tier: a database page's read
// or write (read and write hold the two switches over model.Medium), a
// log page's I/O, a replaced page's write-back, or a GEM write-buffer or
// GEM-cache destage. Its device steps, gem and disk, each close their
// own attribution window on cp. A process caller passes its
// continuation and parks once; earlier steps carry it detached, and
// background chains carry none. Records are pooled per system and next
// steps are method expressions, so an I/O allocates nothing.
type pageOp struct {
	n       *Node
	cont    sim.Continuation // resumed when the chain is done
	cp      *attrib.Vector   // receives each device window; nil in the background
	start   sim.Time         // start of the open device window
	file    *model.File      // nil for a log page or a bare GEM access
	group   *storage.Group   // the disk step's group
	slot    int32            // the database page's directory slot; -1 for none
	page    model.PageID
	seq     uint64
	writing bool             // the disk step writes
	io      sim.Continuation // the disk step's group access carries it
	meta    *pagedir.Slot    // GLT entry a write-back found this node owning
	next    func(*pageOp)    // runs when the pending step completed
	then    func(*pageOp)    // runs when the write chain completed; nil ends it

	stepFn, gemDoneFn, accessFn func()
	diskDoneFn                  func(cached bool)
}

// newOp takes a page-I/O record from the system's pool for the
// database page in slot (-1: a log page or a bare GEM access); its
// first device window opens now.
func (n *Node) newOp(cont sim.Continuation, cp *attrib.Vector, slot int32, seq uint64) *pageOp {
	w := n.sys.ops.Get()
	if w == nil {
		w = &pageOp{}
		w.stepFn, w.gemDoneFn, w.accessFn, w.diskDoneFn = w.step, w.gemDone, w.access, w.diskDone
	}
	w.n, w.cont, w.cp, w.slot, w.seq, w.start = n, cont, cp, slot, seq, n.sys.env.Now()
	if slot >= 0 {
		w.page = n.sys.dir.Page(slot)
		w.file = n.sys.db.File(w.page.File)
	}
	return w
}

// freeOp returns a finished page-I/O record to the pool.
func (n *Node) freeOp(w *pageOp) {
	*w = pageOp{stepFn: w.stepFn, gemDoneFn: w.gemDoneFn, accessFn: w.accessFn, diskDoneFn: w.diskDoneFn}
	n.sys.ops.Put(w)
}

// background starts a chain with no process at step, in a new event at
// this instant: the slot a spawned process would start in.
func (w *pageOp) background(step func(*pageOp)) {
	w.next = step
	w.n.sys.env.After(0, w.stepFn)
}

// step runs next.
func (w *pageOp) step() { w.next(w) }

// gem runs one CPU-held GEM page access, then next (if non-nil).
func (w *pageOp) gem(next func(*pageOp)) {
	w.next = next
	w.n.cpu.Hold(w.cont, w.n.sys.params.GEMIOInstr, w.n.sys.gemDev.Page(), 1, w.gemDoneFn)
}

// gemDone ends a GEM page access, whose service demand is the held CPU
// burst plus the page access (the rest of its window is queueing).
func (w *pageOp) gemDone() {
	w.stepDone(attrib.ResGEM, w.n.cpu.ServiceTime(w.n.sys.params.GEMIOInstr)+w.n.sys.gemDev.PageAccessTime())
}

// disk charges the I/O CPU burst, then accesses the page through the
// file's disk group (or the log group set) carrying cont, then next.
func (w *pageOp) disk(cont sim.Continuation, next func(*pageOp)) {
	if w.file != nil {
		w.group = w.n.sys.groups[w.file.ID]
	}
	w.io, w.next = cont, next
	w.n.cpu.ExecFn(w.cont.Detach(), w.n.sys.params.IOInstr, w.accessFn)
}

// access issues the disk step's group access.
func (w *pageOp) access() { w.group.Access(w.io, w.page, w.writing, w.diskDoneFn) }

// diskDone ends a disk step; cached: the group's cache served it.
func (w *pageOp) diskDone(cached bool) {
	w.stepDone(attrib.ResDisk, w.n.cpu.ServiceTime(w.n.sys.params.IOInstr)+w.group.ServiceTime(cached))
}

// stepDone is the one place a device window is charged: the window
// open since the last step goes to cp (if any) as res with service
// demand svc, the next one opens, and next (if any) runs.
func (w *pageOp) stepDone(res attrib.Res, svc time.Duration) {
	now := w.n.sys.env.Now()
	if w.cp != nil {
		w.cp.AddWindow(res, now-w.start, svc)
	}
	w.start = now
	if w.next != nil {
		w.next(w)
	}
}

// read runs the read chain: the one switch over the file's medium that
// serves page reads. GEM, a page still in the GEM write buffer and a
// GEM-cache hit take one GEM page access; a GEM-cache miss reads the
// disk and then fills the cache; any other medium reads the disk.
func (w *pageOp) read() {
	sys := w.n.sys
	w.n.storageReads++
	switch w.file.Medium {
	case model.MediumGEM:
		w.gem(nil)
		return
	case model.MediumGEMWriteBuffer:
		if sys.dir.At(w.slot).Buffered {
			sys.wbReadHits++
			w.gem(nil)
			return
		}
	case model.MediumGEMCache:
		sys.gemCacheReqs++
		if sys.gemCaches[w.file.ID].Get(w.slot) != nil {
			sys.gemCacheHits++
			w.gem(nil)
		} else {
			w.disk(w.cont.Detach(), (*pageOp).fill)
		}
		return
	}
	w.disk(w.cont, nil)
}

// fill copies a page read from disk into the GEM cache, then filled.
func (w *pageOp) fill() { w.gem((*pageOp).filled) }

// filled ends a GEM-cache fill.
func (w *pageOp) filled() { w.n.gemCacheInsert(w.file, w.slot, false) }

// write runs the write chain: the one switch over the file's medium
// that serves page writes. GEM, the GEM cache and the GEM write buffer
// take one GEM page access (the latter two destage later); any other
// medium the I/O CPU burst and a disk group write.
func (w *pageOp) write() {
	w.n.storageWrites++
	switch w.file.Medium {
	case model.MediumGEM:
		w.gem((*pageOp).wrote)
	case model.MediumGEMCache:
		w.gem((*pageOp).cached)
	case model.MediumGEMWriteBuffer:
		w.gem((*pageOp).buffered)
	default:
		w.writing = true
		w.disk(w.cont, (*pageOp).wrote)
	}
}

// cached ends a write into the non-volatile GEM cache.
func (w *pageOp) cached() {
	w.n.gemCacheInsert(w.file, w.slot, true)
	w.wrote()
}

// buffered ends a write into the non-volatile GEM write buffer: a
// version newer than the buffered one is destaged in the background.
func (w *pageOp) buffered() {
	sys := w.n.sys
	sys.wbWrites++
	if s := sys.dir.At(w.slot); !s.Buffered || w.seq > s.WBSeq {
		s.Buffered, s.WBSeq = true, w.seq
		w.n.newOp(sim.Continuation{}, nil, w.slot, w.seq).background((*pageOp).destage)
	}
	w.wrote()
}

// wrote records the stored version and goes on with then.
func (w *pageOp) wrote() {
	if w.file.AppendOnly {
		w.n.sys.dir.At(w.slot).Stored = true
	}
	w.n.sys.oracle.storageWrite(w.page, w.seq)
	if w.then != nil {
		w.then(w)
	}
}

// readGEM starts a GEM-cache destage: the page is read out of GEM.
func (w *pageOp) readGEM() { w.gem((*pageOp).destage) }

// destage writes a destaged page to disk.
func (w *pageOp) destage() {
	w.writing = true
	w.disk(w.cont, (*pageOp).destaged)
}

// destaged ends a destage; a write-buffer entry still holding the
// destaged version is released (a GEM-cache page has none).
func (w *pageOp) destaged() {
	if s := w.n.sys.dir.At(w.slot); s.Buffered && s.WBSeq == w.seq {
		s.Buffered = false
	}
	w.n.freeOp(w)
}

// writeBack starts a replaced page's write-back. Under GEM locking
// (NOFORCE) one GLT entry read checks ownership first: if a newer
// version exists elsewhere, the stale copy must not reach the disk.
func (w *pageOp) writeBack() {
	if n := w.n; n.sys.params.Coupling == CouplingGEM && !n.sys.params.Force && w.file.Locking {
		w.entry((*pageOp).owned)
		return
	}
	w.then = (*pageOp).writtenBack
	w.write()
}

// entry runs one GLT entry access with the CPU held, then next.
func (w *pageOp) entry(next func(*pageOp)) {
	w.next = next
	w.n.cpu.Hold(sim.Continuation{}, 0, w.n.sys.gemDev.Entries(), 1, w.stepFn)
}

// owned writes the page if the GLT entry still names this node and
// version as its owner.
func (w *pageOp) owned() {
	if meta := w.n.sys.gltMetaOf(w.slot); int(meta.Owner) == w.n.id && meta.Seq == w.seq {
		w.meta, w.then = meta, (*pageOp).cas
		w.write()
		return
	}
	w.writtenBack()
}

// cas adapts the GLT entry with one Compare&Swap write so future misses
// read from the permanent database.
func (w *pageOp) cas() { w.entry((*pageOp).writtenBack) }

// writtenBack ends a write-back: unless a newer version took over, the
// GLT entry drops this node as owner and the in-memory copy goes.
func (w *pageOp) writtenBack() {
	n := w.n
	if m := w.meta; m != nil && int(m.Owner) == n.id && m.Seq == w.seq {
		m.Owner = -1
	}
	if n.inflight.Get(w.slot) == w.seq {
		n.inflight.Delete(w.slot)
	}
	n.freeOp(w)
}

// requestPage asks the owning node for the current page version (GEM
// locking, NOFORCE). It returns the received sequence number, or ok ==
// false if the owner no longer buffers the page (then the permanent
// database is current).
func (n *Node) requestPage(t *txn, slot int32, owner int) (uint64, bool) {
	sys := n.sys
	if sys.faultsOn && (sys.down[owner] || sys.down[n.id]) {
		// The owner (or this node) is down: fall back to storage.
		// Committed versions lost with the owner's buffer are redone
		// during its recovery; until then the page is fenced.
		return 0, false
	}
	n.pageReqs++
	start := sys.env.Now()
	wait := sys.newWait(t.proc)
	defer sys.endWait(wait)
	m := sys.newMsg(msgPageRequest)
	m.slot, m.wait = slot, waitRef{w: wait, epoch: wait.epoch}
	sys.net.Send(t.proc, n.id, owner, netsim.Short, m)
	if armed := sys.faultsOn && sys.params.LockWaitTimeout > 0; armed {
		t.proc.UnparkAfter(sys.params.LockWaitTimeout)
	}
	t.waiting = wait
	t.proc.Park()
	t.waiting = nil
	// The round trip is message latency plus remote processing: pure
	// network waiting from this transaction's point of view.
	t.cp.Add(attrib.ResNet, sys.env.Now()-start, 0)
	reply := wait.reply
	if t.killed || reply == nil || !reply.found {
		// Crash, lost request or lost reply, or the owner no longer
		// buffers the page: fall back to storage.
		n.pageReqMiss++
		return 0, false
	}
	if n.sys.params.GEMPageTransfer {
		// Exchange across GEM: the owner deposited the page in GEM
		// (modelled at the owner); read it back synchronously.
		n.gemPageIO(t.proc, t.cp)
	}
	n.pageReqDelay.AddDuration(n.sys.env.Now() - start)
	return reply.seq, true
}

// resetStats clears this node's measurement counters.
func (n *Node) resetStats() {
	n.cpu.ResetStats()
	n.pool.ResetStats()
	n.logGroup.ResetStats()
	n.gate.resetStats()
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
func (n *Node) Pool() *buffer.Pool[int32] { return n.pool }

// CPU exposes the CPU complex (tests and diagnostics).
func (n *Node) CPU() *cpusrv.CPU { return n.cpu }
