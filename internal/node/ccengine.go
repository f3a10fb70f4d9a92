package node

import (
	"time"

	"gemsim/internal/attrib"
	"gemsim/internal/cc"
	"gemsim/internal/model"
	"gemsim/internal/netsim"
	"gemsim/internal/pagedir"
	"gemsim/internal/trace"
)

// ccEngine is a node's concurrency-control engine: it mediates every
// page access of a transaction attempt and ends the attempt. The
// coupling modes' native two-phase locking protocols implement it
// directly: centralCC runs GEM locking and the central lock engine
// against the one global table, pclCC primary copy locking. optEngine
// implements the optimistic engines (OCC, MV-TO) and the hot/cold
// hybrid (HAD) on top of them.
type ccEngine interface {
	// access mediates one page access in the given mode and reports the
	// Outcome the buffer manager must observe. first reports the
	// attempt's first touch of the page (buffer hit-ratio accounting).
	// The error is a *cc.Conflict (restart with backoff) or one of the
	// abort sentinels errDeadlock, errTimeout and errKilled.
	access(t *txn, slot int32, mode model.LockMode) (out cc.Outcome, first bool, err error)
	// releaseAll ends the attempt: on commit it publishes the new page
	// versions; either way it releases every lock the attempt holds.
	releaseAll(t *txn, commit bool)
}

// lockCovers reports whether held, the transaction's lock on a page (if
// any), already covers an access in mode: only a read lock asked for
// writing needs an upgrade.
func lockCovers(held heldLock, mode model.LockMode) bool {
	return held.kind != 0 && !(held.mode == model.LockRead && mode == model.LockWrite)
}

// buffered is the outcome of a repeated access that needs no
// mediation: a held lock, or a recorded optimistic observation,
// guarantees the buffered copy cannot have been dropped below the
// version the attempt observed.
func (n *Node) buffered(slot int32) cc.Outcome {
	out := cc.Outcome{Owner: -1}
	if fr := n.pool.Peek(slot); fr != nil {
		out.Seq = fr.SeqNo
	}
	return out
}

// remoteRoundTrip sends the request m to the partition's serving node
// home and parks until the reply arrives, the node crashes under the
// attempt (errKilled), the attempt is chosen as a deadlock victim
// (errDeadlock), or the lock-wait timer fires (errTimeout: the request
// or the reply was lost, or the serving node died). A serving node
// already known to be down aborts the attempt at once with errTimeout;
// by the time the backoff expires the partition has been reassigned to
// a survivor. The whole round trip counts as lock-message time and is
// charged to res on the critical path — the requester has no view of
// the remote service split — and traced as span kind on the page in
// slot. On success the caller reads the reply from the returned wait
// and ends it.
func (n *Node) remoteRoundTrip(t *txn, home int, m *message, res attrib.Res, kind trace.Kind, slot int32) (*remoteWait, error) {
	sys := n.sys
	if sys.faultsOn && sys.down[home] {
		sys.freeMsg(m)
		return nil, errTimeout
	}
	n.remoteLocks++
	start := sys.env.Now()
	wait := sys.newWait(t.proc)
	m.wait = waitRef{w: wait, epoch: wait.epoch}
	sys.net.Send(t.proc, n.id, home, netsim.Short, m)
	// The wait becomes visible only after the send: until the request
	// is registered at the serving node this transaction cannot be in
	// a deadlock cycle, and a crash sweep must not unpark the process
	// while it is still inside the send.
	t.waiting = wait
	armed := sys.faultsOn && sys.params.LockWaitTimeout > 0
	if armed {
		t.proc.UnparkAfter(sys.params.LockWaitTimeout)
	}
	t.proc.Park()
	t.waiting = nil
	t.cp.Charge(attrib.PhaseLockMsg, res, sys.env.Now()-start, 0)
	if tr := sys.tracer; tr.Enabled() {
		tr.Span(n.track, int64(t.id), kind, start, sys.env.Now(), sys.dir.Page(slot).String())
	}
	var err error
	switch {
	case t.killed:
		err = errKilled
	case t.deadlock:
		err = errDeadlock
	case armed && wait.reply == nil:
		sys.lockTimeouts++
		err = errTimeout
	default:
		return wait, nil
	}
	sys.endWait(wait)
	return nil, err
}

// optEngine is the optimistic engine family, costed as described in
// DESIGN.md §12:
//
//   - under close coupling an optimistic metadata lookup is one GEM
//     entry read without lock-handling CPU (no queue management, no
//     wait registration), while a 2PL lock operation is LockInstr
//     instructions plus two entry accesses (read + Compare&Swap);
//   - validation and publication are one combined operation each:
//     LockInstr instructions plus one entry access per page of the
//     validated (published) set;
//   - under PCL, metadata of a local partition costs a CPU burst and
//     remote partitions cost one message round trip per access and one
//     batched round trip per partition at validation; publication
//     rides on one-way messages like the native lock release.
//
// Accesses record the committed version they observed; validate
// re-checks the set at end-of-transaction, and commit publishes the new
// versions in the coupling mode's coherency metadata. All optimistic
// metadata work is attributed to attrib.ResCC; the HAD hot path goes
// through the native lock protocol and stays ResLock.
type optEngine struct {
	n *Node
	// mvto selects multiversion timestamp ordering; otherwise accesses
	// record committed sequence numbers for backward validation (OCC).
	mvto bool
	// native is the coupling mode's 2PL engine under HAD, nil
	// otherwise. Pages the attempt already holds locked or that belong
	// to the workload's hot set (Params.HotPage, which tracks the skew
	// rotation) take the native path — waits, not restarts, on the
	// high-contention pages — and every attempt ends with its
	// releaseAll. Without a configured hot set HAD runs every access
	// optimistically.
	native ccEngine
}

// hot reports whether the page belongs to the workload's current hot
// set.
func (e *optEngine) hot(page model.PageID) bool {
	sys := e.n.sys
	return sys.params.HotPage != nil && sys.params.HotPage(page, time.Duration(sys.env.Now()))
}

func (e *optEngine) access(t *txn, slot int32, mode model.LockMode) (cc.Outcome, bool, error) {
	sys := e.n.sys
	if e.native != nil && (t.locked.Get(slot).kind != 0 || e.hot(sys.dir.Page(slot))) {
		return e.native.access(t, slot, mode)
	}
	if t.killed {
		return cc.Outcome{}, false, errKilled
	}
	if ob := t.observed.Get(slot); ob.mode != 0 {
		if mode == model.LockWrite && ob.mode == model.LockRead {
			if err := e.upgrade(t, slot, ob); err != nil {
				return cc.Outcome{}, false, err
			}
		}
		return e.n.buffered(slot), false, nil
	}
	if sys.params.Coupling == CouplingPCL {
		gla := sys.glaOf(slot)
		if sys.ctl != nil {
			sys.ctl.observePart(gla, e.n.id)
		}
		if home := sys.glaHomeOf(gla); home != e.n.id {
			out, err := e.accessRemote(t, slot, gla, home, mode)
			return out, true, err
		}
	}
	e.lookup(t)
	out, err := e.observe(t, slot, mode)
	return out, true, err
}

// meta returns the coherency metadata of the page in slot: its GLT
// entry under close coupling, its GLA partition entry under PCL.
func (e *optEngine) meta(slot int32) *pagedir.Slot {
	sys := e.n.sys
	if sys.params.Coupling == CouplingPCL {
		return sys.pclMetaOf(sys.glaOf(slot), slot)
	}
	return sys.gltMetaOf(slot)
}

// lookup charges one metadata lookup this node performs itself: a GEM
// entry read without lock-handling CPU under close coupling; under PCL
// an entry probe of a local partition without queue management, half a
// lock operation's path length.
func (e *optEngine) lookup(t *txn) {
	if e.n.sys.params.Coupling == CouplingPCL {
		e.n.lockCPUOp(t, e.n.sys.params.LockInstr/2, attrib.ResCC)
		return
	}
	e.n.ccGEMOp(t, 0, 1)
}

// observe completes a first-touch access against metadata this node
// reads itself (GEM, or a local PCL partition): OCC records the
// committed sequence number, MV-TO the version valid at the attempt's
// timestamp, or admits the write.
func (e *optEngine) observe(t *txn, slot int32, mode model.LockMode) (cc.Outcome, error) {
	n := e.n
	sys := n.sys
	gem := sys.params.Coupling != CouplingPCL
	pm := e.meta(slot)
	out := cc.Outcome{Seq: pm.Seq, Owner: -1}
	if gem && !sys.params.Force {
		out.Owner = int(pm.Owner)
	}
	switch {
	case e.mvto && mode == model.LockWrite:
		return out, e.admitWrite(t, slot, pm.Seq)
	case e.mvto:
		v, old := sys.ccVersions.Read(slot, uint64(t.id), pm.Seq)
		if old && gem {
			// Version-list traversal: one more entry access; old
			// versions come from permanent storage, not a node buffer.
			n.ccGEMOp(t, 0, 1)
			out.Owner = -1
		}
		out.Seq = v.Seq
		t.observed.Put(slot, observation{version: v.WTS, mode: model.LockRead})
	default:
		t.observed.Put(slot, observation{version: pm.Seq, mode: mode})
	}
	return out, nil
}

// admitWrite runs the MV-TO write admission check against the
// committed sequence number seq and adds the page to the publish set.
// The admitted version replaces an earlier read observation.
func (e *optEngine) admitWrite(t *txn, slot int32, seq uint64) error {
	wts, ok, reason := e.n.sys.ccVersions.WriteObserve(slot, uint64(t.id), seq)
	if !ok {
		return e.n.ccConflict(t, slot, reason)
	}
	t.observed.Put(slot, observation{version: wts, mode: model.LockWrite})
	return nil
}

// accessRemote mediates a first-touch access to a remote PCL partition
// with one message round trip at its serving node.
func (e *optEngine) accessRemote(t *txn, slot int32, gla, home int, mode model.LockMode) (cc.Outcome, error) {
	op := ccOpLookup
	if e.mvto {
		op = ccOpVersionRead
		if mode == model.LockWrite {
			op = ccOpVersionWrite
		}
	}
	seq, wts, ownerHasCopy, err := e.remoteOp(t, gla, home, op, msgPage{slot: slot})
	if err != nil {
		return cc.Outcome{}, err
	}
	out := cc.Outcome{Seq: seq, Owner: -1}
	if ownerHasCopy && !e.n.sys.params.Force {
		out.Owner = home
	}
	observed := seq
	if e.mvto {
		observed = wts
	}
	t.observed.Put(slot, observation{version: observed, mode: mode})
	return out, nil
}

// upgrade registers a write on a page first touched in read mode, whose
// observation is ob. OCC needs no extra metadata work (backward
// validation covers the read observation, which the write keeps);
// MV-TO must run its write admission check.
func (e *optEngine) upgrade(t *txn, slot int32, ob observation) error {
	sys := e.n.sys
	if !e.mvto {
		t.observed.Put(slot, observation{version: ob.version, mode: model.LockWrite})
		return nil
	}
	if sys.params.Coupling == CouplingPCL {
		gla := sys.glaOf(slot)
		if home := sys.glaHomeOf(gla); home != e.n.id {
			_, wts, _, err := e.remoteOp(t, gla, home, ccOpVersionWrite, msgPage{slot: slot})
			if err != nil {
				return err
			}
			t.observed.Put(slot, observation{version: wts, mode: model.LockWrite})
			return nil
		}
	}
	e.lookup(t)
	return e.admitWrite(t, slot, e.meta(slot).Seq)
}

// remoteOp performs one optimistic metadata operation at a partition's
// serving node on the given pages and returns the version read (seq,
// and wts under MV-TO) and whether the serving node buffers it; a
// rejected operation aborts the attempt with a conflict.
func (e *optEngine) remoteOp(t *txn, gla, home int, op ccOp, pages ...msgPage) (seq, wts uint64, ownerHasCopy bool, err error) {
	n := e.n
	sys := n.sys
	m := sys.newMsg(msgCCOp)
	m.owner, m.op, m.gla, m.ts, m.mvto = sys.owners.Retain(t.owner), op, gla, uint64(t.id), e.mvto
	m.pages = append(m.pages, pages...)
	wait, err := n.remoteRoundTrip(t, home, m, attrib.ResCC, trace.CCRemote, pages[0].slot)
	if err != nil {
		return 0, 0, false, err
	}
	defer sys.endWait(wait)
	if r := wait.reply; !r.ok {
		reason := r.reason
		if reason == "" {
			reason = e.occReason(t, r.slot)
		}
		return 0, 0, false, n.ccConflict(t, r.slot, reason)
	}
	return wait.reply.seq, wait.reply.wts, wait.reply.ownerHasCopy, nil
}

// validate runs backward validation at end-of-transaction, before the
// commit log write: OCC re-checks every recorded access against the
// committed metadata, MV-TO re-checks its write set first-committer-
// wins. One combined metadata operation is charged per partition.
func (e *optEngine) validate(t *txn) error {
	n := e.n
	sys := n.sys
	slots := t.observedSlots(e.mvto)
	if len(slots) == 0 {
		return nil
	}
	n.ccValidations++
	start := sys.env.Now()
	var conflict error
	if sys.params.Coupling == CouplingPCL {
		conflict = e.validatePCL(t, slots)
	} else {
		n.ccGEMOp(t, sys.params.LockInstr, len(slots))
		for _, slot := range slots {
			if conflict = e.check(t, slot, t.observed.Get(slot).version); conflict != nil {
				break
			}
		}
	}
	if tr := sys.tracer; tr.Enabled() {
		arg := trace.ValidateOK
		if conflict != nil {
			arg = trace.ValidateConflict
		}
		tr.Span(n.track, int64(t.id), trace.CCValidate, start, sys.env.Now(), arg)
	}
	if _, isCC := conflict.(*cc.Conflict); isCC {
		n.ccValidationFails++
	}
	return conflict
}

// check re-checks one recorded observation against the committed
// metadata: first-committer-wins under MV-TO, an unchanged sequence
// number under OCC.
func (e *optEngine) check(t *txn, slot int32, recorded uint64) error {
	seq := e.meta(slot).Seq
	if e.mvto {
		if ok, reason := e.n.sys.ccVersions.Recheck(slot, uint64(t.id), recorded, seq); !ok {
			return e.n.ccConflict(t, slot, reason)
		}
	} else if seq != recorded {
		return e.n.ccConflict(t, slot, e.occReason(t, slot))
	}
	return nil
}

// occReason classifies an OCC validation failure: a stale page of the
// publish set is a write-write conflict, a stale read observation a
// plain validation conflict.
func (e *optEngine) occReason(t *txn, slot int32) cc.Reason {
	if t.observed.Get(slot).mode == model.LockWrite {
		return cc.ReasonWW
	}
	return cc.ReasonValidation
}

// validatePCL validates the given slots partition by partition: local
// GLAs with one CPU burst, remote GLAs with one batched round trip each.
func (e *optEngine) validatePCL(t *txn, slots []int32) error {
	n := e.n
	sys := n.sys
	out := t.partitions(sys.params.Nodes)
	for _, slot := range slots {
		gla := sys.glaOf(slot)
		out[gla] = append(out[gla], msgPage{slot: slot, seq: t.observed.Get(slot).version})
	}
	for gla, batch := range out {
		if len(batch) == 0 {
			continue
		}
		if home := sys.glaHomeOf(gla); home != n.id {
			if _, _, _, err := e.remoteOp(t, gla, home, ccOpValidate, batch...); err != nil {
				return err
			}
			continue
		}
		n.lockCPUOp(t, sys.params.LockInstr, attrib.ResCC)
		for _, op := range batch {
			if err := e.check(t, op.slot, op.seq); err != nil {
				return err
			}
		}
	}
	return nil
}

// releaseAll publishes a committed attempt's writes; under HAD the
// native protocol then releases the hot locks (and re-publishes its
// locked modified pages).
func (e *optEngine) releaseAll(t *txn, commit bool) {
	if commit {
		e.publish(t)
	}
	if e.native != nil {
		e.native.releaseAll(t, commit)
	}
}

// publish installs the attempt's writes in the coherency metadata: one
// combined operation under close coupling, one one-way message per
// remote partition under PCL (NOFORCE carries the pages, like the
// native lock release).
func (e *optEngine) publish(t *txn) {
	n := e.n
	sys := n.sys
	slots := t.observedSlots(true)
	if len(slots) == 0 {
		return
	}
	if sys.params.Coupling == CouplingPCL {
		e.publishPCL(t, slots)
		return
	}
	n.ccGEMOp(t, sys.params.LockInstr, len(slots))
	owner := n.id
	if sys.params.Force {
		owner = -1
	}
	for _, slot := range slots {
		if mod := t.modified.Get(slot); mod.frame != nil {
			e.install(t, slot, mod.frame.SeqNo, owner)
		}
	}
}

// observedSlots returns the slots of the pages the attempt accessed
// optimistically, only the written ones when writes is set, in page
// order, in t's page buffer.
func (t *txn) observedSlots(writes bool) []int32 {
	slots := t.observed.AppendKeys(t.pages[:0])
	if writes {
		kept := slots[:0]
		for _, slot := range slots {
			if t.observed.Get(slot).mode == model.LockWrite {
				kept = append(kept, slot)
			}
		}
		slots = kept
	}
	t.pages = sortSlots(t.node.sys.dir, slots)
	return t.pages
}

// install records one committed write in metadata this node reaches
// itself: the MV-TO version, then the sequence number and owner. The
// update is monotonic: validation precedes the commit log write, so a
// concurrent attempt can validate against the same version and commit
// the same sequence number first (DESIGN.md §12, approximation 2).
func (e *optEngine) install(t *txn, slot int32, seq uint64, owner int) {
	sys := e.n.sys
	pm := e.meta(slot)
	if e.mvto {
		sys.ccVersions.Commit(slot, uint64(t.id), seq, pm.Seq)
	}
	if seq > pm.Seq {
		pm.Seq = seq
		pm.Owner = int32(owner)
		sys.oracle.commit(pm.Page, seq)
	}
}

func (e *optEngine) publishPCL(t *txn, slots []int32) {
	n := e.n
	sys := n.sys
	out := t.partitions(sys.params.Nodes)
	for _, slot := range slots {
		mod := t.modified.Get(slot)
		if mod.frame == nil {
			continue
		}
		gla := sys.glaOf(slot)
		if sys.glaHomeOf(gla) == n.id {
			e.install(t, slot, mod.frame.SeqNo, -1)
			continue
		}
		rp := msgPage{slot: slot, seq: mod.frame.SeqNo}
		if !sys.params.Force {
			// Ownership moves to the serving node; the local copy stays
			// readable but is no longer this node's to write back.
			rp.carried = true
			mod.frame.Dirty = false
		}
		out[gla] = append(out[gla], rp)
	}
	n.lockCPUOp(t, sys.params.LockInstr, attrib.ResCC)
	n.sendPartitions(t, msgCCPublish, e.mvto)
}

// ccGEMOp charges one optimistic metadata operation against GEM: instr
// lock-handling instructions held on the CPU plus entries entry
// accesses, attributed to ResCC on the critical path.
func (n *Node) ccGEMOp(t *txn, instr float64, entries int) {
	svcStart := n.sys.env.Now()
	n.gemEntryOp(t.proc, instr, entries)
	svc := time.Duration(entries)*n.sys.gemDev.EntryAccessTime() + n.cpu.ServiceTime(instr)
	t.cp.Charge(attrib.PhaseLockSvc, attrib.ResCC, n.sys.env.Now()-svcStart, svc)
}

// lockCPUOp charges a PCL-side lock or metadata CPU burst to the
// lock-service phase and to resource res.
func (n *Node) lockCPUOp(t *txn, instr float64, res attrib.Res) {
	if instr <= 0 {
		return
	}
	svcStart := n.sys.env.Now()
	n.cpu.Exec(t.proc, instr)
	t.cp.Charge(attrib.PhaseLockSvc, res, n.sys.env.Now()-svcStart, n.cpu.ServiceTime(instr))
}

// ccConflict emits the cc-abort trace instant and builds the typed
// conflict error that restarts the transaction with backoff.
func (n *Node) ccConflict(t *txn, slot int32, reason cc.Reason) error {
	if tr := n.sys.tracer; tr.Enabled() {
		tr.Instant(n.track, int64(t.id), trace.CCAbort, n.sys.env.Now(), string(reason))
	}
	return &cc.Conflict{Reason: reason, Page: n.sys.dir.Page(slot)}
}

// handleCCOp serves optimistic metadata operations at a partition's
// serving node (PCL), on the callback tier; the request record returns
// as the short reply.
func (n *Node) handleCCOp(m *message) {
	sys := n.sys
	if sys.faultsOn && sys.down[m.owner.Node] {
		// The requester crashed while the message was in flight.
		sys.freeMsg(m)
		return
	}
	m.kind, m.ok = msgCCOpAck, true
	switch m.op {
	case ccOpLookup:
		slot := m.pages[0].slot
		meta := sys.pclMetaOf(m.gla, slot)
		m.seq = meta.Seq
		if !sys.params.Force && n.hasCurrent(slot, meta.Seq) {
			m.ownerHasCopy = true
		}
	case ccOpVersionRead:
		slot := m.pages[0].slot
		meta := sys.pclMetaOf(m.gla, slot)
		v, _ := sys.ccVersions.Read(slot, m.ts, meta.Seq)
		m.seq, m.wts = v.Seq, v.WTS
		if !sys.params.Force && v.Seq == meta.Seq && n.hasCurrent(slot, meta.Seq) {
			m.ownerHasCopy = true
		}
	case ccOpVersionWrite:
		slot := m.pages[0].slot
		meta := sys.pclMetaOf(m.gla, slot)
		wts, ok, reason := sys.ccVersions.WriteObserve(slot, m.ts, meta.Seq)
		m.seq, m.wts, m.ok, m.reason = meta.Seq, wts, ok, reason
		if !ok {
			m.slot = slot
		}
	case ccOpValidate:
		for _, op := range m.pages {
			meta := sys.pclMetaOf(m.gla, op.slot)
			if m.mvto {
				if ok, reason := sys.ccVersions.Recheck(op.slot, m.ts, op.seq, meta.Seq); !ok {
					m.ok, m.reason, m.slot = false, reason, op.slot
					break
				}
			} else if meta.Seq != op.seq {
				m.ok, m.slot = false, op.slot
				break
			}
		}
	}
	m.send()
}

// handleCCPublish installs published versions at a partition's serving
// node (PCL): metadata updated monotonically, carried pages installed
// (the serving node becomes their owner), MV-TO versions committed.
func (n *Node) handleCCPublish(m *message) {
	sys := n.sys
	for _, rp := range m.pages {
		meta := sys.pclMetaOf(m.gla, rp.slot)
		if m.mvto {
			sys.ccVersions.Commit(rp.slot, m.ts, rp.seq, meta.Seq)
		}
		if rp.seq > meta.Seq {
			meta.Seq = rp.seq
			sys.oracle.commit(meta.Page, rp.seq)
		}
		if rp.carried {
			n.install(rp.slot, rp.seq, true)
		}
	}
}
