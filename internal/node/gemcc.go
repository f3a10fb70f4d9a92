package node

import (
	"time"

	"gemsim/internal/attrib"
	"gemsim/internal/cc"
	"gemsim/internal/lock"
	"gemsim/internal/model"
	"gemsim/internal/netsim"
	"gemsim/internal/sim"
)

// gemCC implements concurrency and coherency control with a global lock
// table (GLT) in Global Extended Memory: every lock request and release
// is processed against GLT entries with synchronous GEM accesses (one
// read plus one Compare&Swap write per operation). Extended lock
// information — page sequence numbers and the current page owner — is
// kept in the same entries, so buffer invalidations are detected
// without extra communication [Ra91a].
type gemCC struct {
	n *Node
}

// glt returns the single global lock table.
func (c *gemCC) glt() *lock.Table { return c.n.sys.tables[0] }

// gltAccess charges the synchronous GEM entry accesses of one GLT
// operation: the CPU stays busy while the entry is read and written
// back with Compare&Swap. The composite runs as a callback chain with
// a single park.
func (c *gemCC) gltAccess(p *sim.Proc, entries int) {
	c.n.gemEntryOp(p, c.n.sys.params.LockInstr, entries)
}

// gltAccessAttr runs gltAccess and charges the window to phase ph and
// to ResLock on the transaction's record (service = lock-instruction
// burst plus entry accesses; the remainder is CPU or GEM queueing).
func (c *gemCC) gltAccessAttr(t *txn, entries int, ph attrib.Phase) {
	n := c.n
	start := n.sys.env.Now()
	c.gltAccess(t.proc, entries)
	svc := n.cpu.ServiceTime(n.sys.params.LockInstr) +
		time.Duration(entries)*n.sys.gemDev.EntryAccessTime()
	t.cp.Charge(ph, attrib.ResLock, n.sys.env.Now()-start, svc)
}

// access processes one lock request against the GLT, unless a held
// lock already covers the access.
func (c *gemCC) access(t *txn, page model.PageID, mode model.LockMode) (cc.Outcome, bool, error) {
	n := c.n
	held := t.locked[page]
	if lockCovers(held, mode) {
		return n.buffered(page), false, nil
	}
	if t.killed {
		return cc.Outcome{}, false, errKilled
	}
	n.localLocks++ // GLT locking is routing-independent; no messages
	c.gltAccessAttr(t, 2, attrib.PhaseLockSvc)

	wait := &remoteWait{proc: t.proc}
	_, granted := c.glt().Request(page, t.owner, mode, wait)
	if !granted {
		n.lockWaits++
		n.sys.noteFenceConflict(page)
		start := n.sys.env.Now()
		t.waiting = wait
		err := n.sys.blockForLock(t)
		t.waiting = nil
		if err != nil {
			n.lockWaitDone(t, page, start)
			return cc.Outcome{}, false, err
		}
		n.lockWaitTime.AddDuration(n.sys.env.Now() - start)
		n.lockWaitDone(t, page, start)
		// Re-read the entry after the wakeup notification.
		c.gltAccessAttr(t, 2, attrib.PhaseLockSvc)
	}
	t.locked[page] = heldLock{mode: mode, kind: kindLocal}

	meta := n.sys.gltMetaOf(page)
	out := cc.Outcome{Seq: meta.Seq, Owner: -1}
	if !n.sys.params.Force {
		out.Owner = meta.Owner
	}
	return out, held.kind == 0, nil
}

// releaseAll performs commit phase 2 (or abort): every held GLT entry
// is updated with synchronous GEM accesses; for committed modifications
// the new page sequence number and — under NOFORCE — the new page owner
// are recorded. Transactions waiting on released locks are woken, by a
// short message when they run on another node.
func (c *gemCC) releaseAll(t *txn, commit bool) {
	n := c.n
	if held := c.glt().HeldCount(t.owner); held > 0 {
		c.gltAccessAttr(t, 2*held, attrib.NoPhase)
	}
	if commit {
		t.pages = sortedPages(t.pages, t.modified)
		for _, page := range t.pages {
			mod := t.modified[page]
			file := n.sys.db.File(page.File)
			if !file.Locking {
				continue
			}
			meta := n.sys.gltMetaOf(page)
			meta.Seq = mod.frame.SeqNo
			if n.sys.params.Force {
				meta.Owner = -1
			} else {
				meta.Owner = n.id
			}
			n.sys.oracle.commit(page, mod.frame.SeqNo)
		}
	}
	granted := c.glt().ReleaseAll(t.owner)
	n.sys.wakeGEMGranted(granted, execCtx{node: n.id, proc: t.proc})
	clear(t.locked)
}

// wakeGEMGranted notifies the owners of newly granted GLT requests: a
// direct resume for waiters on the same node (and in InstantWakeup
// ablation mode), a short message otherwise.
func (s *System) wakeGEMGranted(granted []*lock.Request, ctx execCtx) {
	for _, req := range granted {
		wd, ok := req.Data.(*remoteWait)
		if !ok {
			continue
		}
		waiterNode := req.Owner.Node
		if s.params.InstantWakeup || waiterNode == ctx.node {
			wd.proc.Unpark()
			continue
		}
		s.net.Send(ctx.proc, ctx.node, waiterNode, netsim.Short, wakeupMsg{Wait: wd})
	}
}
