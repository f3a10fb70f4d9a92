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

// leCC implements the centralized lock engine architecture of [Yu87],
// the closely coupled comparator discussed in the paper's related work
// section: a special-purpose lock processor serializes all lock and
// unlock operations with a service time of 100-500 µs per request —
// two to three orders of magnitude slower than GEM entry accesses.
// Coherency control follows [Yu87] as well: every update transaction
// broadcasts an invalidation message for its modified pages to all
// other nodes at commit and waits for the acknowledgements before
// releasing its locks; update propagation is disk-based (FORCE).
//
// The engine accesses are synchronous (the CPU stays busy), like GEM
// accesses, but the single slow server becomes a bottleneck at high
// aggregate transaction rates — the effect the paper contrasts GEM
// locking against.
type leCC struct {
	n *Node
}

// invalidateMsg is the commit-time broadcast of [Yu87]-style coherency
// control: the receiver discards its copies of the listed pages and
// acknowledges.
type invalidateMsg struct {
	Pages []model.PageID
	Wait  *remoteWait
}

// invalidateAckMsg acknowledges an invalidation broadcast.
type invalidateAckMsg struct {
	Wait *remoteWait
}

func (c *leCC) table() *lock.Table { return c.n.sys.tables[0] }

// engineAccess charges ops synchronous lock engine operations: the CPU
// is held while the requests queue at and are served by the engine.
// The whole composite runs as one CPU-held chain; the process parks
// once.
func (c *leCC) engineAccess(p *sim.Proc, ops int) {
	c.n.cpu.Hold(p.Continuation(), 0, c.n.sys.engine, ops, nil)
	p.Park()
}

// engineAccessAttr runs engineAccess and charges the window to phase
// ph and to ResLock on the transaction's record (service = the
// engine's per-operation service time; the remainder is CPU or engine
// queueing).
func (c *leCC) engineAccessAttr(t *txn, ops int, ph attrib.Phase) {
	n := c.n
	start := n.sys.env.Now()
	c.engineAccess(t.proc, ops)
	svc := time.Duration(ops) * n.sys.engine.Svc
	t.cp.Charge(ph, attrib.ResLock, n.sys.env.Now()-start, svc)
}

// access processes one lock request at the central lock engine,
// unless a held lock already covers the access.
func (c *leCC) access(t *txn, page model.PageID, mode model.LockMode) (cc.Outcome, bool, error) {
	n := c.n
	held := t.locked[page]
	if lockCovers(held, mode) {
		return n.buffered(page), false, nil
	}
	n.localLocks++ // engine access, no inter-node messages
	c.engineAccessAttr(t, 1, attrib.PhaseLockSvc)

	wait := &remoteWait{proc: t.proc}
	_, granted := c.table().Request(page, t.owner, mode, wait)
	if !granted {
		n.lockWaits++
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
	}
	t.locked[page] = heldLock{mode: mode, kind: kindLocal}

	// With broadcast invalidation stale copies are discarded eagerly;
	// the sequence number still travels for the coherency oracle (a
	// cached copy that survived all broadcasts is current).
	meta := n.sys.gltMetaOf(page)
	return cc.Outcome{Seq: meta.Seq, Owner: -1}, held.kind == 0, nil
}

// releaseAll performs commit phase 2 at the lock engine. For update
// transactions the invalidation broadcast precedes the lock releases:
// the new versions were already forced to disk in phase 1, and no node
// may access the pages before all stale copies are gone.
func (c *leCC) releaseAll(t *txn, commit bool) {
	n := c.n
	sys := n.sys

	if commit && len(t.modified) > 0 {
		pages := make([]model.PageID, 0, len(t.modified))
		t.pages = sortedPages(t.pages, t.modified)
		for _, page := range t.pages {
			file := sys.db.File(page.File)
			if !file.Locking {
				continue
			}
			mod := t.modified[page]
			meta := sys.gltMetaOf(page)
			meta.Seq = mod.frame.SeqNo
			meta.Owner = -1
			sys.oracle.commit(page, mod.frame.SeqNo)
			pages = append(pages, page)
		}
		if len(pages) > 0 && sys.params.Nodes > 1 {
			c.broadcastInvalidations(t, pages)
		}
	}

	if held := c.table().HeldCount(t.owner); held > 0 {
		c.engineAccessAttr(t, held, attrib.NoPhase)
	}
	granted := c.table().ReleaseAll(t.owner)
	sys.wakeGEMGranted(granted, execCtx{node: n.id, proc: t.proc})
	clear(t.locked)
}

// broadcastInvalidations sends the modified page list to every other
// node and waits for all acknowledgements.
func (c *leCC) broadcastInvalidations(t *txn, pages []model.PageID) {
	n := c.n
	sys := n.sys
	wait := &remoteWait{proc: t.proc, needed: sys.params.Nodes - 1}
	for target := 0; target < sys.params.Nodes; target++ {
		if target == n.id {
			continue
		}
		sys.net.Send(t.proc, n.id, target, netsim.Short, invalidateMsg{Pages: pages, Wait: wait})
	}
	if wait.needed > 0 {
		start := sys.env.Now()
		t.proc.Park() // woken once all acknowledgements arrived
		t.cp.Add(attrib.ResNet, sys.env.Now()-start, 0)
	}
}

// handleInvalidate discards stale copies and acknowledges.
func (n *Node) handleInvalidate(p *sim.Proc, from int, m invalidateMsg) {
	for _, page := range m.Pages {
		if fr := n.pool.Peek(page); fr != nil && !fr.Fixed() {
			n.invalidations++
			n.pool.Drop(page)
		}
	}
	n.sys.net.Send(p, n.id, from, netsim.Short, invalidateAckMsg{Wait: m.Wait})
}
