package node

import (
	"time"

	"gemsim/internal/attrib"
	"gemsim/internal/cc"
	"gemsim/internal/cpusrv"
	"gemsim/internal/lock"
	"gemsim/internal/model"
	"gemsim/internal/netsim"
)

// centralCC is native two-phase locking against one lock table shared
// by all nodes (sys.tables[0]). Its entries also keep the extended lock
// information — page sequence numbers and, under NOFORCE, the current
// page owner — so buffer invalidations are detected without extra
// communication [Ra91a]. Every operation is synchronous: the CPU stays
// busy while the entry is processed at the table's device. Two coupling
// modes run it, with different per-mode data:
//
//   - GEM locking: the global lock table (GLT) lives in Global Extended
//     Memory; an operation is LockInstr instructions plus one read and
//     one Compare&Swap write of the entry.
//   - the centralized lock engine of [Yu87], the closely coupled
//     comparator of the paper's related work section: a special-purpose
//     lock processor serves each operation in 100-500 µs, two to three
//     orders of magnitude slower than GEM entry accesses, so the single
//     slow server becomes a bottleneck at high aggregate transaction
//     rates. Coherency control follows [Yu87] as well: every update
//     transaction broadcasts an invalidation message for its modified
//     pages to all other nodes at commit and waits for the
//     acknowledgements before releasing its locks; update propagation is
//     disk-based (FORCE).
type centralCC struct {
	n *Node
	// instr is the CPU burst held per operation (LockInstr for GEM, none
	// for the engine, which does the lock processing itself).
	instr float64
	// dev serves the entry accesses: GEM's entry batches or the engine.
	dev *cpusrv.Device
	// cycles is the number of device cycles per lock operation: a read
	// plus a Compare&Swap in GEM, one engine request.
	cycles int
	// reread re-reads the entry after a lock-wait wakeup (GEM).
	reread bool
	// broadcast runs the [Yu87] invalidation broadcast at commit.
	broadcast bool
}

func (c *centralCC) table() *lock.Table { return c.n.sys.tables[0] }

// op runs ops device cycles as one CPU-held composite (the process
// parks once) and charges the window to phase ph and to ResLock on the
// transaction's record: service is the held burst plus the cycles, the
// remainder CPU or device queueing.
func (c *centralCC) op(t *txn, ops int, ph attrib.Phase) {
	n := c.n
	start := n.sys.env.Now()
	n.cpu.Hold(t.proc.Continuation(), c.instr, c.dev, ops, nil)
	t.proc.Park()
	svc := n.cpu.ServiceTime(c.instr) + time.Duration(ops)*c.dev.Svc
	t.cp.Charge(ph, attrib.ResLock, n.sys.env.Now()-start, svc)
}

// access processes one lock request against the central table, unless
// a held lock already covers the access. Under the engine's broadcast
// invalidation stale copies are discarded eagerly; the sequence number
// still travels for the coherency oracle (a cached copy that survived
// all broadcasts is current).
func (c *centralCC) access(t *txn, slot int32, mode model.LockMode) (cc.Outcome, bool, error) {
	n := c.n
	held := t.locked.Get(slot)
	if lockCovers(held, mode) {
		return n.buffered(slot), false, nil
	}
	if t.killed {
		return cc.Outcome{}, false, errKilled
	}
	n.localLocks++ // central locking is routing-independent; no messages
	c.op(t, c.cycles, attrib.PhaseLockSvc)
	waited, err := n.requestLock(t, c.table(), slot, mode)
	if err != nil {
		return cc.Outcome{}, false, err
	}
	if waited && c.reread {
		// Re-read the entry after the wakeup notification.
		c.op(t, c.cycles, attrib.PhaseLockSvc)
	}
	t.locked.Put(slot, heldLock{mode: mode, kind: kindLocal})

	meta := n.sys.gltMetaOf(slot)
	out := cc.Outcome{Seq: meta.Seq, Owner: -1}
	if !n.sys.params.Force {
		out.Owner = int(meta.Owner)
	}
	return out, held.kind == 0, nil
}

// releaseAll performs commit phase 2 (or abort): every held entry is
// updated, committed modifications are published, and transactions
// waiting on released locks are woken, by a short message when they run
// on another node. Under broadcast the invalidations precede the entry
// updates: the new versions were already forced to disk in phase 1, and
// no node may access the pages before all stale copies are gone.
func (c *centralCC) releaseAll(t *txn, commit bool) {
	n := c.n
	if commit && c.broadcast {
		c.publish(t)
	}
	if held := c.table().HeldCount(t.owner); held > 0 {
		c.op(t, c.cycles*held, attrib.NoPhase)
	}
	if commit && !c.broadcast {
		c.publish(t)
	}
	if n.sys.answer(c.table().ReleaseAll(t.owner), 0, n.id, t.proc.Continuation()) {
		t.proc.Park()
	}
	t.locked.Reset(0)
}

// publish records each committed modification in its entry: the new
// page sequence number and — under NOFORCE — the new page owner. Under
// broadcast the modified pages are then invalidated at every other
// node.
func (c *centralCC) publish(t *txn) {
	n := c.n
	sys := n.sys
	owner := -1
	if !sys.params.Force {
		owner = n.id
	}
	inv := t.partitions(1)
	t.pages = sortedSlots(sys.dir, t.pages, &t.modified)
	for _, slot := range t.pages {
		meta := sys.gltMetaOf(slot)
		if !sys.db.File(meta.Page.File).Locking {
			continue
		}
		mod := t.modified.Get(slot)
		seq := mod.frame.SeqNo
		meta.Seq, meta.Owner = seq, int32(owner)
		sys.oracle.commit(meta.Page, seq)
		if c.broadcast {
			inv[0] = append(inv[0], msgPage{slot: slot})
		}
	}
	if len(inv[0]) > 0 && sys.params.Nodes > 1 {
		c.broadcastInvalidations(t)
	}
}

// broadcastInvalidations sends the modified pages collected in t.out[0]
// to every other node and waits for all acknowledgements.
func (c *centralCC) broadcastInvalidations(t *txn) {
	n := c.n
	sys := n.sys
	wait := sys.newWait(t.proc)
	wait.needed = sys.params.Nodes - 1
	for target := 0; target < sys.params.Nodes; target++ {
		if target == n.id {
			continue
		}
		m := sys.newMsg(msgInvalidate)
		m.wait = waitRef{w: wait, epoch: wait.epoch}
		m.pages = append(m.pages, t.out[0]...)
		sys.net.Send(t.proc, n.id, target, netsim.Short, m)
	}
	if wait.needed > 0 {
		start := sys.env.Now()
		t.proc.Park() // woken once all acknowledgements arrived
		t.cp.Add(attrib.ResNet, sys.env.Now()-start, 0)
	}
	sys.endWait(wait)
}

// handleInvalidate discards stale copies and returns the record as the
// acknowledgement.
func (n *Node) handleInvalidate(m *message) {
	for _, pg := range m.pages {
		if fr := n.pool.Peek(pg.slot); fr != nil && !fr.Fixed() {
			n.invalidations++
			n.pool.Drop(pg.slot)
		}
	}
	m.kind = msgInvalidateAck
	m.send()
}
