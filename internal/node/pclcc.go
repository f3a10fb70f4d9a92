package node

import (
	mathbits "math/bits"

	"gemsim/internal/attrib"
	"gemsim/internal/cc"
	"gemsim/internal/lock"
	"gemsim/internal/model"
	"gemsim/internal/netsim"
	"gemsim/internal/sim"
	"gemsim/internal/trace"
)

// pclCC implements primary copy locking [Ra86]: the database is
// logically partitioned and every node holds the global lock authority
// (GLA) for one partition. Lock requests against the local partition
// are processed without communication; other requests are sent to the
// authorized node. Coherency control is integrated:
//
//   - buffer invalidations are detected via page sequence numbers kept
//     at the GLA;
//   - under NOFORCE the GLA node acts as the page owner of its
//     partition: pages modified elsewhere are returned with the lock
//     release message (no extra message), and the current version can
//     be supplied together with the lock grant message;
//   - a read optimization lets nodes process read locks locally under a
//     read authorization (RA) granted by the GLA and revoked on remote
//     write interest.
type pclCC struct {
	n *Node
}

func (c *pclCC) table(gla int) *lock.Table { return c.n.sys.tables[gla] }

// access processes one page lock request under PCL, unless a held lock
// already covers the access.
func (c *pclCC) access(t *txn, slot int32, mode model.LockMode) (cc.Outcome, bool, error) {
	held := t.locked.Get(slot)
	if lockCovers(held, mode) {
		return c.n.buffered(slot), false, nil
	}
	out, err := c.lock(t, slot, mode)
	return out, held.kind == 0, err
}

// lock routes a lock request to the page's partition.
func (c *pclCC) lock(t *txn, slot int32, mode model.LockMode) (cc.Outcome, error) {
	n := c.n
	sys := n.sys
	if t.killed {
		return cc.Outcome{}, errKilled
	}
	gla := sys.glaOf(slot)
	// After a failover the partition of a crashed node is served by the
	// recovery coordinator; requests follow the indirection.
	home := sys.glaHomeOf(gla)
	if sys.ctl != nil {
		sys.ctl.observePart(gla, n.id)
	}

	if home == n.id {
		return c.lockLocal(t, slot, mode, gla)
	}

	// Read optimization: a read lock on a page for which this node
	// holds a read authorization and a buffered copy is processed
	// locally, without messages. The lock is still registered at the
	// GLA table (at zero cost) so that conflicting writers queue and
	// deadlock detection stays sound.
	if mode == model.LockRead && sys.raBit(slot, sys.raWords, n.id) {
		if seq, ok := n.copySeq(slot); ok {
			return c.lockShadowRA(t, slot, gla, seq)
		}
	}

	return c.lockRemote(t, slot, mode, gla, home)
}

// lockLocal handles a request against this node's own partition.
func (c *pclCC) lockLocal(t *txn, slot int32, mode model.LockMode, gla int) (cc.Outcome, error) {
	n := c.n
	sys := n.sys
	n.localLocks++
	n.lockCPUOp(t, sys.params.LockInstr, attrib.ResLock)
	if _, err := n.requestLock(t, c.table(gla), slot, mode); err != nil {
		return cc.Outcome{}, err
	}
	if mode == model.LockWrite && sys.revoke(slot, n.id, t.proc.Continuation()) {
		t.proc.Park()
	}
	t.locked.Put(slot, heldLock{mode: mode, kind: kindLocal})
	meta := sys.pclMetaOf(gla, slot)
	return cc.Outcome{Seq: meta.Seq, Owner: -1}, nil
}

// lockShadowRA handles a locally processed read lock under a read
// authorization. copySeq is the sequence number of the buffered copy,
// which the RA guarantees to be current.
func (c *pclCC) lockShadowRA(t *txn, slot int32, gla int, copySeq uint64) (cc.Outcome, error) {
	n := c.n
	sys := n.sys
	n.localLocks++
	n.lockCPUOp(t, sys.params.LockInstr, attrib.ResLock)
	// An ungranted request means the RA is being revoked by a writer; it
	// waits like a regular conflict.
	waited, err := n.requestLock(t, c.table(gla), slot, model.LockRead)
	if err != nil {
		return cc.Outcome{}, err
	}
	t.locked.Put(slot, heldLock{mode: model.LockRead, kind: kindShadowRA})
	if !waited {
		return cc.Outcome{Seq: copySeq, Owner: -1}, nil
	}
	// After the writer committed the copy may be obsolete; report the
	// authoritative sequence number and direct refetches to the GLA
	// node, which owns the current version under NOFORCE.
	meta := sys.pclMetaOf(gla, slot)
	out := cc.Outcome{Seq: meta.Seq, Owner: -1}
	if !sys.params.Force {
		out.Owner = sys.glaHomeOf(gla)
	}
	return out, nil
}

// lockRemote sends the request to the partition's serving node (its
// original GLA home, or the adoptive coordinator after a failover) and
// waits for the grant.
func (c *pclCC) lockRemote(t *txn, slot int32, mode model.LockMode, gla, home int) (cc.Outcome, error) {
	n := c.n
	sys := n.sys
	m := sys.newMsg(msgLockRequest)
	m.owner, m.slot, m.mode, m.gla = sys.owners.Retain(t.owner), slot, mode, gla
	m.seq, m.hasCopy = n.copySeq(slot)
	start := sys.env.Now()
	wait, err := n.remoteRoundTrip(t, home, m, attrib.ResNet, trace.LockRemote, slot)
	if err != nil {
		if err == errTimeout {
			// Withdraw the request unless the serving node is down (the
			// abort path clears this owner's table state directly; the
			// cancel message models the distributed withdrawal).
			if home = sys.glaHomeOf(gla); !sys.down[home] {
				cm := sys.newMsg(msgLockCancel)
				cm.owner, cm.gla = sys.owners.Retain(t.owner), gla
				sys.net.Send(t.proc, n.id, home, netsim.Short, cm)
			}
		}
		return cc.Outcome{}, err
	}
	n.lockWaitTime.AddDuration(sys.env.Now() - start)
	grant := wait.reply
	if grant.grantRA {
		sys.setRABit(slot, sys.raWords, n.id, true)
	}
	t.locked.Put(slot, heldLock{mode: mode, kind: kindRemote})
	out := cc.Outcome{Seq: grant.seq, Owner: -1, Carried: grant.carried}
	if grant.ownerHasCopy && !sys.params.Force {
		// Should the local copy disappear before the access (it can be
		// replaced while the grant is in flight), fetch from the serving
		// node, which buffers the current version.
		out.Owner = home
	}
	sys.endWait(wait)
	return out, nil
}

// handleLockRequest processes an arriving remote lock request at the
// GLA node, on the callback tier. A queued request keeps the message
// record as its continuation.
func (n *Node) handleLockRequest(m *message) {
	sys := n.sys
	if sys.faultsOn && sys.down[m.owner.Node] {
		// The requester crashed while the message was in flight; its
		// lock state was already swept by the failover.
		sys.freeMsg(m)
		return
	}
	req, granted := sys.tables[m.gla].Request(m.slot, m.owner, m.mode, nil)
	if granted {
		n.pclReply(m)
		m.send()
		return
	}
	req.Data = m
	sys.noteFenceConflict(m.slot)
	// The remote requester waits in the queue; check for deadlocks it
	// may have closed.
	if cycle := sys.detector.FindCycle(m.owner); cycle != nil {
		victim := lock.Victim(cycle)
		sys.abortVictim(victim)
	}
}

// pclReply turns the lock request m into its grant at the GLA node,
// ready to send: attach coherency information, grant a read
// authorization, revoke authorizations on write interest (the
// revocations go out first), and — under NOFORCE — supply the current
// page version with the grant when the requester's copy is obsolete
// (long reply).
func (n *Node) pclReply(m *message) {
	sys := n.sys
	meta := sys.pclMetaOf(m.gla, m.slot)
	stale := !m.hasCopy || m.seq < meta.Seq
	m.kind, m.at, m.to, m.class = msgLockGrant, n.id, int(m.owner.Node), netsim.Short
	m.seq = meta.Seq
	if !sys.params.Force {
		// The GLA holds the current version of its partition's
		// modified pages; ship it with the grant when useful.
		if n.hasCurrent(m.slot, meta.Seq) {
			m.ownerHasCopy = true
			if stale {
				n.pool.Get(m.slot) // LRU touch for the supplied page
				m.carried = true
				m.class = netsim.Long
			}
		}
	}
	if m.mode == model.LockWrite {
		m.revoking = sys.raCursor(m.slot, int(m.owner.Node))
	} else {
		m.grantRA = true
		sys.setRABit(m.slot, 0, int(m.owner.Node), true)
	}
}

// copySeq returns the sequence number of this node's copy of the page
// in slot, in the buffer or under replacement write-back, and whether
// it has one.
func (n *Node) copySeq(slot int32) (uint64, bool) {
	if fr := n.pool.Peek(slot); fr != nil {
		return fr.SeqNo, true
	}
	seq := n.inflight.Get(slot)
	return seq, seq != 0
}

// hasCurrent reports whether this node buffers the current version of
// the page in slot (including copies under replacement write-back).
func (n *Node) hasCurrent(slot int32, seq uint64) bool {
	if fr := n.pool.Peek(slot); fr != nil && fr.SeqNo >= seq {
		return true
	}
	if s := n.inflight.Get(slot); s != 0 && s >= seq {
		return true
	}
	return false
}

// revoke withdraws the read authorizations on the page in slot of every node but
// at, in ascending node order: a short revocation message per holder
// node, sent from at on the callback tier, one after another
// (fire-and-forget; in-progress local read locks are covered by their
// shadow registrations). The last revocation resumes cont's process;
// revoke reports whether the process must park.
func (s *System) revoke(slot int32, at int, cont sim.Continuation) bool {
	cur := s.raCursor(slot, at)
	if !cur.more(s) {
		return false
	}
	m := s.revocation(slot)
	m.revoking, m.at, m.class, m.reliable, m.cont = cur, at, netsim.Short, true, cont
	m.send()
	return true
}

// revocation is the message withdrawing a read authorization on the
// page in slot. It is sent reliably: a lost revocation would leave a
// stale authorization and silently break coherency.
func (s *System) revocation(slot int32) *message {
	m := s.newMsg(msgRevokeRA)
	m.slot = slot
	return m
}

// The read authorizations on a page are two node bitsets in its
// directory slot's words: the ones the GLA granted (from word 0), then
// each node's own view of the ones it holds (from word raWords). Bit b
// of word w stands for node 64*w+b.

// raBit reports node's bit in the set starting at word base.
func (s *System) raBit(slot int32, base, node int) bool {
	return s.dir.Words(slot)[base+node/64]&(1<<(node%64)) != 0
}

// setRABit sets or clears node's bit in the set starting at word base.
func (s *System) setRABit(slot int32, base, node int, on bool) {
	w := &s.dir.Words(slot)[base+node/64]
	if on {
		*w |= 1 << (node % 64)
	} else {
		*w &^= 1 << (node % 64)
	}
}

// raCursor walks the read authorizations on one page in ascending node
// order, withdrawing each holder but keep as it reaches it; a word of
// the set is read when the walk enters it. The zero cursor is done.
type raCursor struct {
	slot             int32
	keep, word, left int    // left counts the words still to read
	bits             uint64 // holders of word-1 not reached yet
}

// raCursor starts a walk of the read authorizations on the page in
// slot.
func (s *System) raCursor(slot int32, keep int) raCursor {
	return raCursor{slot: slot, keep: keep, left: s.raWords}
}

// next withdraws the next holder's authorization and returns the
// holder, or -1 when the walk is over.
func (c *raCursor) next(s *System) int {
	node := c.holder(s)
	if node >= 0 {
		s.setRABit(c.slot, 0, node, false)
	}
	return node
}

// more reports whether the walk has a holder left, as the
// authorizations stand now.
func (c raCursor) more(s *System) bool { return c.holder(s) >= 0 }

// holder moves the cursor to the next holder and returns it, or -1
// when the walk is over.
func (c *raCursor) holder(s *System) int {
	for c.bits != 0 || c.left > 0 {
		if c.bits == 0 {
			c.bits = s.dir.Words(c.slot)[c.word]
			c.word++
			c.left--
			continue
		}
		node := (c.word-1)*64 + mathbits.TrailingZeros64(c.bits)
		c.bits &= c.bits - 1
		if node != c.keep {
			return node
		}
	}
	return -1
}

// releaseAll performs commit phase 2 (or abort) under PCL: locks of the
// local partition are released directly; locks at remote GLAs are
// released with one message per GLA node, carrying the new versions of
// modified pages (NOFORCE) so that no extra messages are needed for
// update propagation. The transaction does not wait for the release
// messages to be processed.
func (c *pclCC) releaseAll(t *txn, commit bool) {
	n := c.n
	sys := n.sys

	if !commit {
		// Abort: release everything this owner holds or waits for in
		// any table, including locks granted while the deadlock victim
		// notice was in flight (they never made it into t.locked).
		for g, tbl := range sys.tables {
			if sys.answer(tbl.ReleaseAll(t.owner), g, n.id, t.proc.Continuation()) {
				t.proc.Park()
			}
		}
		t.locked.Reset(0)
		return
	}

	t.pages = sortedSlots(sys.dir, t.pages, &t.locked)
	out := t.partitions(sys.params.Nodes)
	for _, slot := range t.pages {
		hl := t.locked.Get(slot)
		gla := sys.glaOf(slot)
		mod := t.modified.Get(slot)
		modified := mod.frame != nil
		switch hl.kind {
		case kindLocal:
			if modified {
				meta := sys.pclMetaOf(gla, slot)
				meta.Seq = mod.frame.SeqNo
				sys.oracle.commit(meta.Page, mod.frame.SeqNo)
			}
			// Answered in this process even after a GLA migration
			// moved the partition away: the lock was granted here.
			if sys.answer(sys.tables[gla].Release(slot, t.owner), gla, sys.glaHomeOf(gla), t.proc.Continuation()) {
				t.proc.Park()
			}
		case kindShadowRA:
			if sys.answer(sys.tables[gla].Release(slot, t.owner), gla, n.id, t.proc.Continuation()) {
				t.proc.Park()
			}
		case kindRemote:
			rp := msgPage{slot: slot}
			if modified {
				rp.seq = mod.frame.SeqNo
				if !sys.params.Force {
					rp.carried = true
					// Ownership moves to the GLA node; the local copy
					// stays readable but is no longer this node's to
					// write back.
					mod.frame.Dirty = false
				}
			}
			out[gla] = append(out[gla], rp)
		}
		t.locked.Delete(slot)
	}
	n.sendPartitions(t, msgLockRelease, false)
}
