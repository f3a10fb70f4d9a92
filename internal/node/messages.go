package node

import (
	"slices"

	"gemsim/internal/cc"
	"gemsim/internal/lock"
	"gemsim/internal/model"
	"gemsim/internal/netsim"
	"gemsim/internal/sim"
)

// Messages exchanged between nodes are records of one type, tagged by
// kind and sent by pointer through the netsim package, which charges
// send/receive CPU overhead and the transmission delay. Records are
// pooled per system: the receiver frees a record once it has handled
// it, and a request comes back as its own reply, so a message costs no
// heap allocation in steady state. A record lost in transit or dropped
// at a down node is simply never reused.

// msgKind tags a message record. A reply reuses its request's record.
type msgKind uint8

const (
	msgLockRequest   msgKind = iota + 1 // PCL lock request to the partition's serving node
	msgLockGrant                        // its grant (long when it carries the page, NOFORCE)
	msgLockRelease                      // commit release at one partition, new versions in pages
	msgLockCancel                       // withdrawal of a timed-out request (cost only)
	msgRevokeRA                         // withdrawal of the read authorization on page
	msgCCOp                             // optimistic metadata operation op at a partition (PCL)
	msgCCOpAck                          // its reply: ok, or reason and the failing page
	msgCCPublish                        // optimistic commit publication to a partition
	msgPageRequest                      // GEM locking, NOFORCE: ask the owner for page
	msgPageReply                        // its reply: found (long) or not
	msgWakeup                           // GEM locking: a GLT request was granted
	msgInvalidate                       // lock engine: discard pages, then acknowledge
	msgInvalidateAck                    // its acknowledgement
	msgRebuildQuery                     // PCL failover: lock rebuild round trip (cost only)
	msgRebuildReply                     // its reply
	msgGLAHandoff                       // GLA migration: count directory entries of gla
	msgGLAHandoffAck                    // acknowledgement of the final batch
)

// ccOp selects the optimistic-engine metadata operation performed at a
// partition's serving node (PCL).
type ccOp int

const (
	ccOpLookup       ccOp = iota + 1 // OCC access: committed-version lookup
	ccOpVersionRead                  // MV-TO read: version-store read at TS
	ccOpVersionWrite                 // MV-TO write admission check
	ccOpValidate                     // batched end-of-transaction re-check
)

// msgPage is one page of a release, publication, validate batch or
// invalidation, with a version: the new one (0 if the page was not
// modified), or the one observed at access time.
type msgPage struct {
	slot    int32
	seq     uint64
	carried bool // the modified page travels with the message (NOFORCE)
}

// partitions returns t's per-partition buffers of message pages for n
// partitions, emptied (the central table is partition 0).
func (t *txn) partitions(n int) [][]msgPage {
	if len(t.out) < n {
		t.out = make([][]msgPage, n)
	}
	for i := range t.out {
		t.out[i] = t.out[i][:0]
	}
	return t.out
}

// sendPartitions sends the pages in t.out from process t, one reliable
// message of the given kind per partition in ascending partition
// order, each listing its pages in page order (a long message when one
// travels with it). Reliable: a lost release would strand every later
// requester at the partition, a lost publication leave its metadata
// stale.
func (n *Node) sendPartitions(t *txn, kind msgKind, mvto bool) {
	sys := n.sys
	for gla, batch := range t.out {
		if len(batch) == 0 {
			continue
		}
		m := sys.newMsg(kind)
		m.owner, m.gla, m.ts, m.mvto = sys.owners.Retain(t.owner), gla, uint64(t.id), mvto
		class := netsim.Short
		for _, pg := range batch {
			m.pages = append(m.pages, pg)
			if pg.carried {
				class = netsim.Long
			}
		}
		sys.net.SendReliable(t.proc, n.id, sys.glaHomeOf(gla), class, m)
	}
}

// message is one message between nodes; kind says which fields are
// set. A lock request gives the requester's buffered version (hasCopy,
// seq), its grant the current one, carried when the page travels with
// it, ownerHasCopy when the serving node buffers it and grantRA with a
// read authorization. A reply carries its request's wait back. A
// message that names an owner holds a reference to its handle
// (lock.Owners) until it is freed: a request or release in flight
// still names the owner after its attempt ended.
type message struct {
	kind   msgKind
	wait   waitRef
	owner  lock.Owner
	gla    int
	slot   int32
	mode   model.LockMode
	op     ccOp
	seq    uint64
	wts    uint64
	ts     uint64
	count  int // entries of a handoff batch; pages a release has released
	reason cc.Reason
	pages  []msgPage

	hasCopy, carried, ownerHasCopy, grantRA, found, final, mvto, ok bool

	// send routes the record from node at to node to, after the
	// revocations under a write grant's cursor, then runs then and
	// resumes cont's process. A grant walk (walk) answers the requests
	// in granted[next:] from node to.
	at, to   int
	class    netsim.Class
	reliable bool
	revoking raCursor
	then     func()
	cont     sim.Continuation
	granted  []lock.Grant
	next     int

	sys    *System
	sendFn func() // bound to send
	walkFn func() // bound to walkOn
}

// newMsg takes a message record of the given kind from the pool.
func (s *System) newMsg(kind msgKind) *message {
	m := s.msgs.Get()
	if m == nil {
		m = &message{sys: s}
		m.sendFn, m.walkFn = m.send, m.walkOn
	}
	m.kind = kind
	return m
}

// freeMsg returns a handled message record to the pool, with the
// reference to the owner it carries.
func (s *System) freeMsg(m *message) {
	if m.owner.Index() != 0 {
		s.owners.Release(m.owner)
	}
	*m = message{sys: s, sendFn: m.sendFn, walkFn: m.walkFn, pages: m.pages[:0], granted: m.granted[:0]}
	s.msgs.Put(m)
}

// send puts m on its way on the callback tier, the send overhead held
// on the sender's CPU and traced for cont's process. A write grant
// first sends its revocations, one after another, each continuing the
// chain when its own send completes; a revocation walk (a record of
// kind msgRevokeRA, see revoke) goes out as its own last revocation.
// The last send runs then and resumes cont's process.
func (m *message) send() {
	s := m.sys
	if node := m.revoking.next(s); node >= 0 {
		if m.kind != msgRevokeRA || m.revoking.more(s) {
			s.net.Post(m.cont.Detach(), m.at, node, netsim.Short, s.revocation(m.slot), true, m.sendFn)
			return
		}
		m.to = node
	}
	if cont := m.cont; !s.net.Post(cont, m.at, m.to, m.class, m, m.reliable, m.then) && cont.Proc() != nil {
		cont.ResumeAfter(0, nil) // a free send completes at once: resume in the next slot
	}
}

// answer answers granted, the requests table tbl just granted, for a
// caller at node from, in a grant walk (walk). A caller at the serving
// node passes its continuation: the walk starts at once on its behalf,
// and answer reports whether the caller must park until the walk's last
// send resumes it. Every other walk starts in the next calendar slot,
// on nobody's behalf. Under PCL the serving node is the partition's;
// under GEM locking and the lock engine it is the caller's.
func (s *System) answer(granted []lock.Grant, tbl, from int, cont sim.Continuation) bool {
	if len(granted) == 0 {
		return false
	}
	m := s.newMsg(msgLockRelease)
	m.gla, m.granted, m.to = tbl, append(m.granted, granted...), from
	if s.params.Coupling == CouplingPCL {
		if s.glaHomeOf(tbl) != from {
			cont = sim.Continuation{}
		}
		m.to = -1 // the partition's node, looked up when the walk starts
	}
	if cont.Proc() == nil {
		s.env.After(0, m.walkFn)
		return false
	}
	m.cont = cont
	return m.walk()
}

// walk answers m.granted, requests table m.gla granted, from the
// serving node m.to, one after another: a waiter on that node (any PCL
// waiter; every waiter under InstantWakeup) resumes in place, a PCL
// remote requester gets its revocations and then its grant, a GEM
// waiter on another node a wakeup, each send completing before the walk
// goes on. A release message then releases its next page at its serving
// node m.at and answers what that granted, until every page is
// released. The walk's last send resumes m.cont's process; walk reports
// whether a send is under way.
func (m *message) walk() bool {
	s := m.sys
	for {
		if m.to < 0 {
			m.to = s.glaHomeOf(m.gla)
		}
		for m.next < len(m.granted) {
			d := s.answerOne(m.granted[m.next].Request(), m.to)
			m.next++
			if d == nil {
				continue
			}
			d.then, d.cont = m.walkFn, m.cont.Detach()
			if m.cont.Proc() != nil && !slices.ContainsFunc(m.granted[m.next:], func(g lock.Grant) bool { return s.sends(g.Request(), m.to) }) {
				d.cont, m.cont = m.cont, sim.Continuation{} // the last send
			}
			d.send()
			return true
		}
		if m.count == len(m.pages) {
			s.freeMsg(m)
			return false
		}
		rp := m.pages[m.count]
		m.count++
		if rp.seq > 0 {
			meta := s.pclMetaOf(m.gla, rp.slot)
			if rp.seq > meta.Seq {
				meta.Seq = rp.seq
				s.oracle.commit(meta.Page, rp.seq)
			}
		}
		if rp.carried {
			s.nodes[m.at].install(rp.slot, rp.seq, true)
		}
		m.granted, m.next = append(m.granted[:0], s.tables[m.gla].Release(rp.slot, m.owner)...), 0
		m.to = s.glaHomeOf(m.gla)
	}
}

// walkOn goes on with a walk once one of its sends completed. A walk
// that ends still holding its caller's continuation — the waiter it
// meant to wake last gave up while an earlier send was under way —
// resumes the caller in the next slot.
func (m *message) walkOn() {
	if cont := m.cont; !m.walk() && cont.Proc() != nil {
		cont.ResumeAfter(0, nil)
	}
}

// answerOne answers one granted request from node at: it resumes a
// waiter in place and returns nil, or returns the message that answers
// the request, ready to send. A request released since its grant (nil)
// is dropped; recovery fences and rebuild registrations carry tag data
// and are held silently.
func (s *System) answerOne(req *lock.Request, at int) *message {
	if req == nil {
		return nil
	}
	if !s.sends(req, at) {
		if d, ok := req.Data.(*remoteWait); ok && d.epoch == req.Epoch {
			d.proc.Unpark()
		}
		return nil
	}
	if d, ok := req.Data.(*message); ok {
		s.nodes[at].pclReply(d)
		return d
	}
	m := s.newMsg(msgWakeup)
	m.wait = waitRef{w: req.Data.(*remoteWait), epoch: req.Epoch}
	m.at, m.to, m.class = at, int(req.Owner.Node), netsim.Short
	return m
}

// sends reports whether answering req from node at takes a message: a
// PCL remote request's grant, or a GEM wakeup to a live waiter on
// another node (a short message unless InstantWakeup).
func (s *System) sends(req *lock.Request, at int) bool {
	if req == nil {
		return false
	}
	switch d := req.Data.(type) {
	case *message:
		return true
	case *remoteWait:
		return d.epoch == req.Epoch && s.params.Coupling != CouplingPCL &&
			!s.params.InstantWakeup && int(req.Owner.Node) != at
	}
	return false
}

// remoteWait is the continuation of a process waiting for a reply
// message or a lock grant. Records are pooled per system; epoch counts
// the waits a record has served, and a message or lock queue refers to
// a wait only by a waitRef pinning its epoch, so a reply or wake that
// comes after the waiter gave up (timeout, crash, deadlock) is dropped
// instead of resuming whatever process holds the record now.
type remoteWait struct {
	proc  *sim.Proc
	epoch uint64
	reply *message // handed over before Unpark; nil after a timeout wake
	// acks counts the replies to a broadcast (lock engine coherency,
	// failover rebuild); the waiter resumes once needed have arrived.
	acks, needed int
}

// waitRef names one wait: a record and its epoch when the wait began.
type waitRef struct {
	w     *remoteWait
	epoch uint64
}

// live returns the waiting record, or nil when the wait has ended.
func (r waitRef) live() *remoteWait {
	if r.w == nil || r.w.epoch != r.epoch {
		return nil
	}
	return r.w
}

// newWait takes a wait record for process p from the pool.
func (s *System) newWait(p *sim.Proc) *remoteWait {
	w := s.waits.Get()
	if w == nil {
		w = &remoteWait{}
	}
	w.proc = p
	return w
}

// endWait ends w's wait: the epoch moves on, so every outstanding
// reference goes stale, and the record returns to the pool with its
// reply.
func (s *System) endWait(w *remoteWait) {
	if w.reply != nil {
		s.freeMsg(w.reply)
	}
	*w = remoteWait{epoch: w.epoch + 1}
	s.waits.Put(w)
}
