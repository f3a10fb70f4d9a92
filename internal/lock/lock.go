// Package lock implements the strict two-phase page lock tables used by
// both concurrency control protocols of the study: the global lock
// table (GLT) held in GEM for close coupling, and the per-GLA-node
// tables of the primary copy protocol for loose coupling.
//
// The package is a pure data structure: granting, queueing, upgrades and
// waits-for-graph deadlock detection are modelled here, while all
// timing (GEM entry accesses, messages, CPU overhead) is charged by the
// protocol layer that drives it.
package lock

import (
	"sort"

	"gemsim/internal/model"
	"gemsim/internal/pagedir"
)

// Request is one lock request in a table. While waiting it carries an
// opaque continuation (Data) that the protocol layer uses to resume or
// notify the requester once the request is granted or aborted, and the
// continuation's generation (Epoch): a protocol layer that reuses its
// continuation records compares it to drop a grant that reaches a
// record already serving a later wait.
type Request struct {
	Owner Owner
	Data  any
	Epoch uint64

	prev, next *Request // the owner's granted requests, in grant order
	gen        uint32   // records returned to the pool so far; see Grant
	entry      int32    // handle of the page's entry

	Mode    model.LockMode
	granted bool
	upgrade bool // waiting R->W conversion of an already granted R lock
}

// Granted reports whether the request has been granted.
func (r *Request) Granted() bool { return r.granted }

// Grant is a queued request that a release or cancellation granted,
// pinned at the record's generation. Request records are pooled: a
// grant answered after its request was released reaches a record that
// may already serve a later wait, and Request then reports nil.
type Grant struct {
	r   *Request
	gen uint32
}

// Request returns the granted request, or nil when it has been released
// since.
func (g Grant) Request() *Request {
	if g.r.gen != g.gen {
		return nil
	}
	return g.r
}

// inlineGrants is the number of holders an entry keeps in itself; more
// concurrent holders spill into a heap slice.
const inlineGrants = 4

// holder is one granted request of an entry. The owner and mode are
// kept beside the record, so ownership and compatibility checks do not
// dereference it.
type holder struct {
	owner Owner
	mode  model.LockMode
	r     *Request
}

// entry is the lock state of one page.
type entry struct {
	slot    int32
	granted []holder // inline[:n] until it spills, in grant order
	inline  [inlineGrants]holder
	queue   []*Request
}

// chunk is the number of entries and request records allocated at a
// time; neither ever moves.
const chunk = 64

// Table is a strict-2PL page lock table with FIFO queueing and lock
// upgrades. A page's entry is found through its page directory slot,
// which holds the entry's handle, and an owner's state through its
// owner handle. Entries and request records are pooled, so the
// request/release cycle allocates nothing in steady state; a queued
// request's record returns to the pool like any other, and Grant pins
// its generation for the protocol layer's wake lists.
type Table struct {
	dir     *pagedir.Dir
	owners  *Owners
	entries []*[chunk]entry
	// states holds every owner's granted and waiting requests, by
	// owner handle.
	states   []ownerState
	nwaiting int

	freeEntries []int32
	freeReqs    []*Request
	// grants is the result of the last release or cancellation.
	grants []Grant

	requests  int64
	conflicts int64
}

// ownerState is one owner's requests in a table: its granted requests
// in grant order, linked through the records for ReleaseAll, and its
// single outstanding waiting request (strict 2PL: a transaction waits
// for one lock at a time). A state that is not empty holds a reference
// to the owner's handle, so the handle cannot pass to another owner
// while the table still names it; owner tells a stale lookup from the
// current one.
type ownerState struct {
	owner       Owner
	first, last *Request
	n           int
	waiting     *Request
}

// NewTable creates an empty lock table over the pages of dir for the
// owners of registry owners.
func NewTable(dir *pagedir.Dir, owners *Owners) *Table {
	return &Table{dir: dir, owners: owners}
}

// state returns o's state, or nil when o has none in t.
func (t *Table) state(o Owner) *ownerState {
	if int(o.h) < len(t.states) {
		if st := &t.states[o.h]; st.owner == o {
			return st
		}
	}
	return nil
}

// hold returns o's state for adding a request to it. A state that was
// empty takes a reference to o's handle.
func (t *Table) hold(o Owner) *ownerState {
	t.states = grow(t.states, o.h)
	st := &t.states[o.h]
	if st.n == 0 && st.waiting == nil {
		*st = ownerState{owner: t.owners.Retain(o)}
	} else if st.owner != o {
		panic("lock: " + o.String() + " shares its handle with " + st.owner.String())
	}
	return st
}

// settle drops st's handle reference once st is empty.
func (t *Table) settle(st *ownerState) {
	if st.n == 0 && st.waiting == nil {
		t.owners.Release(st.owner)
	}
}

// wait makes r its owner's waiting request.
func (t *Table) wait(r *Request) {
	st := t.hold(r.Owner)
	if st.waiting == nil {
		t.nwaiting++
	}
	st.waiting = r
}

// entry returns the entry of handle h.
func (t *Table) entry(h int32) *entry { return &t.entries[(h-1)/chunk][(h-1)%chunk] }

// entryOf returns the entry of the page in slot, or nil.
func (t *Table) entryOf(slot int32) *entry {
	if h := t.dir.At(slot).Lock; h != 0 {
		return t.entry(h)
	}
	return nil
}

// newEntry gives the page in slot an entry from the pool.
func (t *Table) newEntry(slot int32) int32 {
	var h int32
	if n := len(t.freeEntries); n > 0 {
		h = t.freeEntries[n-1]
		t.freeEntries = t.freeEntries[:n-1]
	} else {
		h = int32(len(t.entries)*chunk + 1)
		t.entries = append(t.entries, new([chunk]entry))
		for k := h + chunk - 1; k > h; k-- {
			t.freeEntries = append(t.freeEntries, k)
		}
		for i := range t.entries[len(t.entries)-1] {
			e := &t.entries[len(t.entries)-1][i]
			e.granted = e.inline[:0]
		}
	}
	t.entry(h).slot = slot
	t.dir.At(slot).Lock = h
	return h
}

// newRequest takes a request record from the pool.
func (t *Table) newRequest(h int32, o Owner, m model.LockMode, data any) *Request {
	n := len(t.freeReqs)
	if n == 0 {
		rs := new([chunk]Request)
		for i := range rs {
			t.freeReqs = append(t.freeReqs, &rs[chunk-1-i])
		}
		n = chunk
	}
	r := t.freeReqs[n-1]
	t.freeReqs = t.freeReqs[:n-1]
	*r = Request{Owner: o, Mode: m, Data: data, gen: r.gen, entry: h}
	return r
}

// recycleRequest returns a released or cancelled request record to the
// pool; its generation moves on, so every Grant of it goes stale. A
// granted upgrade record belongs to no entry and is not pooled.
func (t *Table) recycleRequest(r *Request) {
	if r.upgrade && r.granted {
		return
	}
	r.gen++
	r.Data = nil
	t.freeReqs = append(t.freeReqs, r)
}

// Requests returns the number of lock requests processed.
func (t *Table) Requests() int64 { return t.requests }

// Conflicts returns the number of requests that had to wait.
func (t *Table) Conflicts() int64 { return t.conflicts }

// holds returns the index of owner's holder in e, or -1.
func (e *entry) holds(o Owner) int {
	for i := range e.granted {
		if e.granted[i].owner == o {
			return i
		}
	}
	return -1
}

// compatibleWithGranted reports whether a request by o in mode m is
// compatible with all granted locks other than o's own.
func (e *entry) compatibleWithGranted(o Owner, m model.LockMode) bool {
	for i := range e.granted {
		if g := &e.granted[i]; g.owner != o && !m.Compatible(g.mode) {
			return false
		}
	}
	return true
}

// grant adds r to e's holders and to its owner's held list.
func (t *Table) grant(e *entry, r *Request) {
	r.granted = true
	e.granted = append(e.granted, holder{owner: r.Owner, mode: r.Mode, r: r})
	st := t.hold(r.Owner)
	if st.first == nil {
		st.first = r
	} else {
		st.last.next, r.prev = r, st.last
	}
	st.last = r
	st.n++
}

// Request asks for a lock on the page in slot in the given mode. If the
// lock is granted immediately it returns (req, true); otherwise the
// request is queued FIFO and returned with granted == false. data is
// kept on the request for the protocol layer's continuation.
//
// Re-requests by a holder are idempotent: holding W satisfies R and W;
// holding R satisfies R; holding R and requesting W is an upgrade that
// is granted immediately if o is the sole holder and queued with
// priority otherwise.
func (t *Table) Request(slot int32, o Owner, m model.LockMode, data any) (*Request, bool) {
	t.requests++
	h := t.dir.At(slot).Lock
	if h == 0 {
		h = t.newEntry(slot)
	}
	e := t.entry(h)
	if i := e.holds(o); i >= 0 {
		own := &e.granted[i]
		if own.mode == model.LockWrite || m == model.LockRead {
			return own.r, true // already sufficient
		}
		// Upgrade R -> W.
		if len(e.granted) == 1 {
			own.mode, own.r.Mode = model.LockWrite, model.LockWrite
			return own.r, true
		}
		t.conflicts++
		up := t.newRequest(h, o, model.LockWrite, data)
		up.upgrade = true
		// Upgrades go to the queue head: they precede new requests to
		// bound starvation (two simultaneous upgraders deadlock and
		// are resolved by the detector).
		e.queue = append(e.queue, nil)
		copy(e.queue[1:], e.queue)
		e.queue[0] = up
		t.wait(up)
		return up, false
	}
	r := t.newRequest(h, o, m, data)
	if len(e.queue) == 0 && e.compatibleWithGranted(o, m) {
		t.grant(e, r)
		return r, true
	}
	t.conflicts++
	e.queue = append(e.queue, r)
	t.wait(r)
	return r, false
}

// promote grants queued requests of e that have become compatible, in
// FIFO order, stopping at the first request that must keep waiting,
// and appends them to t.grants. An entry left empty returns to the
// pool.
func (t *Table) promote(e *entry) {
	for len(e.queue) > 0 {
		head := e.queue[0]
		upgrade := head.upgrade
		if upgrade {
			if len(e.granted) != 1 || e.granted[0].owner != head.Owner {
				break
			}
			e.granted[0].mode, e.granted[0].r.Mode = model.LockWrite, model.LockWrite
			head.granted = true
		} else {
			if !e.compatibleWithGranted(head.Owner, head.Mode) {
				break
			}
			t.grant(e, head)
		}
		e.queue = e.queue[:copy(e.queue, e.queue[1:])]
		// The owner holds a lock on e now, so its state stays.
		t.states[head.Owner.h].waiting = nil
		t.nwaiting--
		t.grants = append(t.grants, Grant{r: head, gen: head.gen})
		if !upgrade && head.Mode == model.LockWrite {
			break
		}
	}
	if len(e.queue) == 0 && len(e.granted) == 0 {
		s := t.dir.At(e.slot)
		t.freeEntries = append(t.freeEntries, s.Lock)
		s.Lock = 0
	}
}

// drop removes o's holder from e and returns its request.
func (e *entry) drop(o Owner) *Request {
	i := e.holds(o)
	if i < 0 {
		return nil
	}
	r := e.granted[i].r
	e.granted = append(e.granted[:i], e.granted[i+1:]...)
	return r
}

// Release drops o's lock on the page in slot and returns the requests
// that became granted as a result, valid until the table's next
// release or cancellation.
func (t *Table) Release(slot int32, o Owner) []Grant {
	t.grants = t.grants[:0]
	e := t.entryOf(slot)
	if e == nil {
		return nil
	}
	if r := e.drop(o); r != nil {
		t.removeHeld(t.state(o), r)
		t.recycleRequest(r)
	}
	t.promote(e)
	return t.grants
}

// ReleaseAll drops every lock held by o (commit phase 2 or abort) and
// returns all newly granted requests, valid until the table's next
// release or cancellation. A waiting request of o, if any, is cancelled
// as well.
func (t *Table) ReleaseAll(o Owner) []Grant {
	t.CancelWaiting(o)
	t.grants = t.grants[:0]
	st := t.state(o)
	if st == nil || st.n == 0 {
		return t.grants
	}
	r := st.first
	st.first, st.last, st.n = nil, nil, 0
	t.settle(st)
	for r != nil {
		next, e := r.next, t.entry(r.entry)
		e.drop(o)
		t.promote(e)
		t.recycleRequest(r)
		r = next
	}
	return t.grants
}

// CancelWaiting removes o's waiting request, if any, and returns
// requests that became granted because the cancellation unblocked the
// queue, valid until the table's next release or cancellation.
func (t *Table) CancelWaiting(o Owner) []Grant {
	t.grants = t.grants[:0]
	st := t.state(o)
	if st == nil || st.waiting == nil {
		return nil
	}
	w := st.waiting
	st.waiting = nil
	t.nwaiting--
	t.settle(st)
	e := t.entry(w.entry)
	for i, q := range e.queue {
		if q == w {
			e.queue = append(e.queue[:i], e.queue[i+1:]...)
			break
		}
	}
	t.recycleRequest(w)
	t.promote(e)
	return t.grants
}

// removeHeld unlinks one granted request from its owner's held list,
// st.
func (t *Table) removeHeld(st *ownerState, r *Request) {
	if r.prev == nil {
		st.first = r.next
	} else {
		r.prev.next = r.next
	}
	if r.next == nil {
		st.last = r.prev
	} else {
		r.next.prev = r.prev
	}
	st.n--
	t.settle(st)
}

// HeldCount returns the number of locks o currently holds.
func (t *Table) HeldCount(o Owner) int {
	if st := t.state(o); st != nil {
		return st.n
	}
	return 0
}

// HoldsLock reports whether o holds a lock on the page in slot in at
// least mode m.
func (t *Table) HoldsLock(slot int32, o Owner, m model.LockMode) bool {
	e := t.entryOf(slot)
	if e == nil {
		return false
	}
	i := e.holds(o)
	return i >= 0 && (e.granted[i].mode == model.LockWrite || m == model.LockRead)
}

// Waiting returns o's outstanding waiting request, or nil.
func (t *Table) Waiting(o Owner) *Request {
	if st := t.state(o); st != nil {
		return st.waiting
	}
	return nil
}

// WaitingCount returns the number of requests currently queued behind
// a conflicting lock, for queue-depth sampling.
func (t *Table) WaitingCount() int { return t.nwaiting }

// Discard drops every owner's state and the table's references to
// their handles, for a table that is replaced (a lost GLA partition
// rebuilt at its new home). The table must not be used afterwards.
func (t *Table) Discard() {
	for i := range t.states {
		if st := &t.states[i]; st.n > 0 || st.waiting != nil {
			t.owners.Release(st.owner)
		}
	}
	t.states = nil
}

// WaitEdge is one wait-for relation in the table: Waiter is blocked by
// a conflicting lock Holder has granted or queued ahead.
type WaitEdge struct {
	Waiter Owner
	Holder Owner
}

// WaitEdges snapshots the wait-for graph as a deterministic edge list:
// waiters sorted by owner, each waiter's blockers in table order. Used
// by the attribution layer's blocker and convoy analysis.
func (t *Table) WaitEdges() []WaitEdge {
	if t.nwaiting == 0 {
		return nil
	}
	waiters := make([]Owner, 0, t.nwaiting)
	for i := range t.states {
		if st := &t.states[i]; st.waiting != nil {
			waiters = append(waiters, st.owner)
		}
	}
	sortOwners(waiters)
	var out []WaitEdge
	var hs []Owner
	for _, o := range waiters {
		hs = t.appendBlockers(hs[:0], t.Waiting(o))
		for _, h := range hs {
			out = append(out, WaitEdge{Waiter: o, Holder: h})
		}
	}
	return out
}

// sortOwners orders owners by node, then transaction id.
func sortOwners(os []Owner) {
	sort.Slice(os, func(i, j int) bool {
		if os[i].Node != os[j].Node {
			return os[i].Node < os[j].Node
		}
		return os[i].Tx < os[j].Tx
	})
}

// appendBlockers appends the owners a waiting request waits for: all
// incompatible granted holders plus incompatible requests queued ahead.
func (t *Table) appendBlockers(out []Owner, w *Request) []Owner {
	e := t.entry(w.entry)
	for i := range e.granted {
		if g := &e.granted[i]; g.owner != w.Owner && !w.Mode.Compatible(g.mode) {
			out = append(out, g.owner)
		}
	}
	for _, q := range e.queue {
		if q == w {
			break
		}
		if q.Owner != w.Owner && (!w.Mode.Compatible(q.Mode) || !q.Mode.Compatible(w.Mode)) {
			out = append(out, q.Owner)
		}
	}
	return out
}
