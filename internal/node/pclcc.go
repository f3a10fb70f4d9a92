package node

import (
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
func (c *pclCC) access(t *txn, page model.PageID, mode model.LockMode) (cc.Outcome, bool, error) {
	held := t.locked[page]
	if lockCovers(held, mode) {
		return c.n.buffered(page), false, nil
	}
	out, err := c.lock(t, page, mode)
	return out, held.kind == 0, err
}

// lock routes a lock request to the page's partition.
func (c *pclCC) lock(t *txn, page model.PageID, mode model.LockMode) (cc.Outcome, error) {
	n := c.n
	sys := n.sys
	if t.killed {
		return cc.Outcome{}, errKilled
	}
	gla := sys.gla.GLA(page)
	// After a failover the partition of a crashed node is served by the
	// recovery coordinator; requests follow the indirection.
	home := sys.glaHomeOf(gla)
	if sys.ctl != nil {
		sys.ctl.observePart(gla, n.id)
	}

	if home == n.id {
		return c.lockLocal(t, page, mode, gla)
	}

	// Read optimization: a read lock on a page for which this node
	// holds a read authorization and a buffered copy is processed
	// locally, without messages. The lock is still registered at the
	// GLA table (at zero cost) so that conflicting writers queue and
	// deadlock detection stays sound.
	if mode == model.LockRead && n.raHeld[page] {
		if fr := n.pool.Peek(page); fr != nil {
			return c.lockShadowRA(t, page, gla, fr.SeqNo)
		}
		if seq, ok := n.inflight[page]; ok {
			return c.lockShadowRA(t, page, gla, seq)
		}
	}

	return c.lockRemote(t, page, mode, gla, home)
}

// lockLocal handles a request against this node's own partition.
func (c *pclCC) lockLocal(t *txn, page model.PageID, mode model.LockMode, gla int) (cc.Outcome, error) {
	n := c.n
	sys := n.sys
	n.localLocks++
	n.lockCPUOp(t, sys.params.LockInstr, attrib.ResLock)
	if _, err := n.requestLock(t, c.table(gla), page, mode, false); err != nil {
		return cc.Outcome{}, err
	}
	if mode == model.LockWrite {
		sys.revokeRAs(page, n.id, execCtx{node: n.id, proc: t.proc})
	}
	t.locked[page] = heldLock{mode: mode, kind: kindLocal}
	meta := sys.pclMetaOf(gla, page)
	return cc.Outcome{Seq: meta.Seq, Owner: -1}, nil
}

// lockShadowRA handles a locally processed read lock under a read
// authorization. copySeq is the sequence number of the buffered copy,
// which the RA guarantees to be current.
func (c *pclCC) lockShadowRA(t *txn, page model.PageID, gla int, copySeq uint64) (cc.Outcome, error) {
	n := c.n
	sys := n.sys
	n.localLocks++
	n.lockCPUOp(t, sys.params.LockInstr, attrib.ResLock)
	// An ungranted request means the RA is being revoked by a writer; it
	// waits like a regular conflict.
	waited, err := n.requestLock(t, c.table(gla), page, model.LockRead, true)
	if err != nil {
		return cc.Outcome{}, err
	}
	t.locked[page] = heldLock{mode: model.LockRead, kind: kindShadowRA}
	if !waited {
		return cc.Outcome{Seq: copySeq, Owner: -1}, nil
	}
	// After the writer committed the copy may be obsolete; report the
	// authoritative sequence number and direct refetches to the GLA
	// node, which owns the current version under NOFORCE.
	meta := sys.pclMetaOf(gla, page)
	out := cc.Outcome{Seq: meta.Seq, Owner: -1}
	if !sys.params.Force {
		out.Owner = sys.glaHomeOf(gla)
	}
	return out, nil
}

// lockRemote sends the request to the partition's serving node (its
// original GLA home, or the adoptive coordinator after a failover) and
// waits for the grant.
func (c *pclCC) lockRemote(t *txn, page model.PageID, mode model.LockMode, gla, home int) (cc.Outcome, error) {
	n := c.n
	sys := n.sys
	wait := &remoteWait{proc: t.proc}
	msg := lockRequestMsg{Owner: t.owner, Page: page, Mode: mode, GLA: gla, Wait: wait}
	if fr := n.pool.Peek(page); fr != nil {
		msg.HasCopy = true
		msg.CachedSeq = fr.SeqNo
	} else if seq, ok := n.inflight[page]; ok {
		msg.HasCopy = true
		msg.CachedSeq = seq
	}
	start := sys.env.Now()
	if err := n.remoteRoundTrip(t, home, msg, wait, attrib.ResNet, trace.LockRemote, page); err != nil {
		if err == errTimeout {
			// Withdraw the request unless the serving node is down (the
			// abort path clears this owner's table state directly; the
			// cancel message models the distributed withdrawal).
			if home = sys.glaHomeOf(gla); !sys.down[home] {
				sys.net.Send(t.proc, n.id, home, netsim.Short, lockCancelMsg{Owner: t.owner, GLA: gla})
			}
		}
		return cc.Outcome{}, err
	}
	n.lockWaitTime.AddDuration(sys.env.Now() - start)
	if wait.grantRA {
		n.raHeld[page] = true
	}
	t.locked[page] = heldLock{mode: mode, kind: kindRemote}
	out := cc.Outcome{Seq: wait.seq, Owner: -1, Carried: wait.carried}
	if wait.ownerHasCopy && !sys.params.Force {
		// Should the local copy disappear before the access (it can be
		// replaced while the grant is in flight), fetch from the serving
		// node, which buffers the current version.
		out.Owner = home
	}
	return out, nil
}

// handleLockRequest processes an arriving remote lock request at the
// GLA node (runs in a message handler process at this node).
func (n *Node) handleLockRequest(p *sim.Proc, m lockRequestMsg) {
	sys := n.sys
	if sys.faultsOn && sys.down[m.Owner.Node] {
		// The requester crashed while the message was in flight; its
		// lock state was already swept by the failover.
		return
	}
	_, granted := sys.tables[m.GLA].Request(m.Page, m.Owner, m.Mode, m)
	if granted {
		n.pclReply(p, m)
		return
	}
	sys.noteFenceConflict(m.Page)
	// The remote requester waits in the queue; check for deadlocks it
	// may have closed.
	if cycle := sys.detector.FindCycle(m.Owner); cycle != nil {
		victim := lock.Victim(cycle)
		sys.abortVictim(victim)
	}
}

// pclReply processes a grant for a remote requester at the GLA node:
// attach coherency information, grant a read authorization, revoke
// authorizations on write interest, and — under NOFORCE — supply the
// current page version with the grant when the requester's copy is
// obsolete (long reply).
func (n *Node) pclReply(p *sim.Proc, m lockRequestMsg) {
	sys := n.sys
	meta := sys.pclMetaOf(m.GLA, m.Page)
	grant := lockGrantMsg{Wait: m.Wait, Seq: meta.Seq}
	class := netsim.Short
	if !sys.params.Force {
		// The GLA holds the current version of its partition's
		// modified pages; ship it with the grant when useful.
		stale := !m.HasCopy || m.CachedSeq < meta.Seq
		if n.hasCurrent(m.Page, meta.Seq) {
			grant.OwnerHasCopy = true
			if stale {
				n.pool.Get(m.Page) // LRU touch for the supplied page
				grant.Carried = true
				class = netsim.Long
			}
		}
	}
	switch m.Mode {
	case model.LockRead:
		grant.GrantRA = true
		set := sys.ra[m.Page]
		if set == nil {
			set = make(map[int]bool, 2)
			sys.ra[m.Page] = set
		}
		set[m.Owner.Node] = true
	case model.LockWrite:
		sys.revokeRAs(m.Page, m.Owner.Node, execCtx{node: n.id, proc: p})
	}
	sys.net.Send(p, n.id, m.Owner.Node, class, grant)
}

// hasCurrent reports whether this node buffers the current version of
// the page (including copies under replacement write-back).
func (n *Node) hasCurrent(page model.PageID, seq uint64) bool {
	if fr := n.pool.Peek(page); fr != nil && fr.SeqNo >= seq {
		return true
	}
	if s, ok := n.inflight[page]; ok && s >= seq {
		return true
	}
	return false
}

// revokeRAs withdraws all read authorizations on page except the one of
// keep, sending a short revocation message per holder node
// (fire-and-forget; in-progress local read locks are covered by their
// shadow registrations).
func (s *System) revokeRAs(page model.PageID, keep int, ctx execCtx) {
	set := s.ra[page]
	if len(set) == 0 {
		return
	}
	for _, node := range sortedKeys(set) {
		if node == keep {
			continue
		}
		delete(set, node)
		// Reliable: a lost revocation would leave a stale authorization
		// and silently break coherency.
		s.net.SendReliable(ctx.proc, ctx.node, node, netsim.Short, revokeRAMsg{Page: page})
	}
	if len(set) == 0 {
		delete(s.ra, page)
	}
}

// wakePCLGranted dispatches newly granted requests of one GLA table:
// local waiters (including shadow RA readers) resume directly; remote
// requesters get a grant reply message from the partition's serving
// node. Recovery fences and rebuild registrations carry tag data and
// are skipped — they are held silently.
func (s *System) wakePCLGranted(granted []*lock.Request, gla int, ctx execCtx) {
	g := s.nodes[s.glaHomeOf(gla)]
	for _, req := range granted {
		switch d := req.Data.(type) {
		case *remoteWait:
			d.proc.Unpark()
		case lockRequestMsg:
			g.pclReply(ctx.proc, d)
		}
	}
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
			granted := tbl.ReleaseAll(t.owner)
			if home := sys.glaHomeOf(g); home == n.id {
				sys.wakeGranted(granted, g, execCtx{node: n.id, proc: t.proc})
			} else {
				sys.wakeGrantedAsync(granted, g, home)
			}
		}
		clear(t.locked)
		return
	}

	perGLA := make(map[int][]releasedPage)
	t.pages = sortedPages(t.pages, t.locked)
	for _, page := range t.pages {
		hl := t.locked[page]
		gla := sys.gla.GLA(page)
		mod, modified := t.modified[page]
		switch hl.kind {
		case kindLocal:
			if modified {
				meta := sys.pclMetaOf(gla, page)
				meta.Seq = mod.frame.SeqNo
				sys.oracle.commit(page, mod.frame.SeqNo)
			}
			granted := sys.tables[gla].Release(page, t.owner)
			sys.wakeGranted(granted, gla, execCtx{node: n.id, proc: t.proc})
		case kindShadowRA:
			granted := sys.tables[gla].Release(page, t.owner)
			if home := sys.glaHomeOf(gla); home == n.id {
				sys.wakeGranted(granted, gla, execCtx{node: n.id, proc: t.proc})
			} else {
				sys.wakeGrantedAsync(granted, gla, home)
			}
		case kindRemote:
			rp := releasedPage{Page: page}
			if modified {
				rp.NewSeq = mod.frame.SeqNo
				if !sys.params.Force {
					rp.Carried = true
					// Ownership moves to the GLA node; the local copy
					// stays readable but is no longer this node's to
					// write back.
					mod.frame.Dirty = false
				}
			}
			perGLA[gla] = append(perGLA[gla], rp)
		}
		delete(t.locked, page)
	}
	for _, gla := range sortedKeys(perGLA) {
		pages := perGLA[gla]
		class := netsim.Short
		for _, rp := range pages {
			if rp.Carried {
				class = netsim.Long
				break
			}
		}
		// Reliable: a lost release would orphan committed locks at the
		// partition and strand every later requester.
		sys.net.SendReliable(t.proc, n.id, sys.glaHomeOf(gla), class, lockReleaseMsg{Owner: t.owner, GLA: gla, Pages: pages})
	}
}

// handleLockRelease processes a release message at the GLA node:
// record the new page versions, install carried pages (the GLA becomes
// their owner), release the locks and grant waiting requests.
func (n *Node) handleLockRelease(p *sim.Proc, m lockReleaseMsg) {
	sys := n.sys
	for _, rp := range m.Pages {
		if rp.NewSeq > 0 {
			meta := sys.pclMetaOf(m.GLA, rp.Page)
			if rp.NewSeq > meta.Seq {
				meta.Seq = rp.NewSeq
				sys.oracle.commit(rp.Page, rp.NewSeq)
			}
		}
		if rp.Carried {
			n.install(rp.Page, rp.NewSeq, true)
		}
		granted := sys.tables[m.GLA].Release(rp.Page, m.Owner)
		sys.wakeGranted(granted, m.GLA, execCtx{node: n.id, proc: p})
	}
}

// handleLockCancel processes a timed-out requester's withdrawal at the
// partition's serving node. The aborting transaction already cleared
// its table state directly when it unwound (lock tables are shared
// structures in the simulator), so the message only charges the
// communication cost of a distributed cancel; mutating the table here
// could race a fast retry of the same transaction.
func (n *Node) handleLockCancel(p *sim.Proc, m lockCancelMsg) {
}
