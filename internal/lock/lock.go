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
	"fmt"
	"sort"

	"gemsim/internal/model"
)

// TxID identifies a transaction instance system-wide. Larger ids are
// younger transactions; deadlock resolution aborts the youngest member
// of a cycle.
type TxID int64

// Owner identifies a lock owner: a transaction instance running at a
// node.
type Owner struct {
	Node int
	Tx   TxID
}

// String formats the owner as node/tx.
func (o Owner) String() string { return fmt.Sprintf("n%d/t%d", o.Node, o.Tx) }

// Request is one lock request in a table. While waiting it carries an
// opaque continuation (Data) that the protocol layer uses to resume or
// notify the requester once the request is granted or aborted, and the
// continuation's generation (Epoch): a protocol layer that reuses its
// continuation records compares it to drop a grant that reaches a
// record already serving a later wait.
type Request struct {
	Owner Owner
	Page  model.PageID
	Mode  model.LockMode
	Data  any
	Epoch uint64

	granted bool
	upgrade bool // waiting R->W conversion of an already granted R lock
	queued  bool // request spent time in an entry queue; never pooled
}

// Granted reports whether the request has been granted.
func (r *Request) Granted() bool { return r.granted }

// entry is the lock state of one page.
type entry struct {
	granted []*Request
	queue   []*Request
}

// lockShards is the number of hash buckets the page->entry index is
// split into. Sharding keeps each map small under hyperscale page
// populations — cheaper growth, better locality — and gives the GLT
// independent buckets instead of one global map. All accesses are
// keyed (never iterated), so the split cannot affect determinism.
const lockShards = 64

// shardOf hashes a page id to its shard.
func shardOf(p model.PageID) int {
	return int((uint32(p.File)*0x9e3779b1 ^ uint32(p.Page)*0x85ebca77) & (lockShards - 1))
}

// Table is a strict-2PL page lock table with FIFO queueing and lock
// upgrades. Entry and request records are pooled: a request that never
// waited is returned to the pool when its lock is released, so the
// uncontended request/release cycle allocates nothing in steady state.
// Requests that entered a queue are deliberately never pooled — their
// pointers escape into wake lists and protocol continuations that can
// outlive the release (timeouts, crash aborts).
type Table struct {
	name   string
	shards [lockShards]map[model.PageID]*entry
	// held tracks every granted request per owner for ReleaseAll.
	held map[Owner][]*Request
	// waiting maps each owner to its single outstanding waiting
	// request (strict 2PL: a transaction waits for one lock at a
	// time).
	waiting map[Owner]*Request

	freeEntries []*entry
	freeReqs    []*Request
	freeHeld    [][]*Request

	requests  int64
	conflicts int64
}

// NewTable creates an empty lock table.
func NewTable(name string) *Table {
	t := &Table{
		name:    name,
		held:    make(map[Owner][]*Request),
		waiting: make(map[Owner]*Request),
	}
	for i := range t.shards {
		t.shards[i] = make(map[model.PageID]*entry)
	}
	return t
}

// entryOf returns the entry for page, or nil.
func (t *Table) entryOf(page model.PageID) *entry {
	return t.shards[shardOf(page)][page]
}

// newRequest takes a request record from the pool.
func (t *Table) newRequest(page model.PageID, o Owner, m model.LockMode, data any) *Request {
	if n := len(t.freeReqs); n > 0 {
		r := t.freeReqs[n-1]
		t.freeReqs[n-1] = nil
		t.freeReqs = t.freeReqs[:n-1]
		*r = Request{Owner: o, Page: page, Mode: m, Data: data}
		return r
	}
	return &Request{Owner: o, Page: page, Mode: m, Data: data}
}

// recycleRequest returns a released request record to the pool —
// only ever called for records that never entered a queue.
func (t *Table) recycleRequest(r *Request) {
	if r.queued {
		return
	}
	r.Data = nil
	t.freeReqs = append(t.freeReqs, r)
}

// newHeld takes a held-slice backing array from the pool.
func (t *Table) newHeld() []*Request {
	if n := len(t.freeHeld); n > 0 {
		hs := t.freeHeld[n-1]
		t.freeHeld[n-1] = nil
		t.freeHeld = t.freeHeld[:n-1]
		return hs
	}
	return nil
}

// recycleHeld returns a held-slice backing array to the pool.
func (t *Table) recycleHeld(hs []*Request) {
	if cap(hs) == 0 {
		return
	}
	hs = hs[:cap(hs)]
	for i := range hs {
		hs[i] = nil
	}
	t.freeHeld = append(t.freeHeld, hs[:0])
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Requests returns the number of lock requests processed.
func (t *Table) Requests() int64 { return t.requests }

// Conflicts returns the number of requests that had to wait.
func (t *Table) Conflicts() int64 { return t.conflicts }

// holds returns the granted request of owner on page, or nil.
func (e *entry) holds(o Owner) *Request {
	for _, r := range e.granted {
		if r.Owner == o {
			return r
		}
	}
	return nil
}

// compatibleWithGranted reports whether a request by o in mode m is
// compatible with all granted locks other than o's own.
func (e *entry) compatibleWithGranted(o Owner, m model.LockMode) bool {
	for _, r := range e.granted {
		if r.Owner == o {
			continue
		}
		if !m.Compatible(r.Mode) {
			return false
		}
	}
	return true
}

// Request asks for a lock on page in the given mode. If the lock is
// granted immediately it returns (req, true); otherwise the request is
// queued FIFO and returned with granted == false. data is kept on the
// request for the protocol layer's continuation.
//
// Re-requests by a holder are idempotent: holding W satisfies R and W;
// holding R satisfies R; holding R and requesting W is an upgrade that
// is granted immediately if o is the sole holder and queued with
// priority otherwise.
func (t *Table) Request(page model.PageID, o Owner, m model.LockMode, data any) (*Request, bool) {
	t.requests++
	shard := t.shards[shardOf(page)]
	e := shard[page]
	if e == nil {
		if n := len(t.freeEntries); n > 0 {
			e = t.freeEntries[n-1]
			t.freeEntries[n-1] = nil
			t.freeEntries = t.freeEntries[:n-1]
		} else {
			e = &entry{}
		}
		shard[page] = e
	}
	if own := e.holds(o); own != nil {
		if own.Mode == model.LockWrite || m == model.LockRead {
			return own, true // already sufficient
		}
		// Upgrade R -> W.
		if len(e.granted) == 1 {
			own.Mode = model.LockWrite
			return own, true
		}
		t.conflicts++
		up := t.newRequest(page, o, model.LockWrite, data)
		up.upgrade = true
		up.queued = true
		// Upgrades go to the queue head: they precede new requests to
		// bound starvation (two simultaneous upgraders deadlock and
		// are resolved by the detector).
		e.queue = append(e.queue, nil)
		copy(e.queue[1:], e.queue)
		e.queue[0] = up
		t.waiting[o] = up
		return up, false
	}
	if len(e.queue) == 0 && e.compatibleWithGranted(o, m) {
		r := t.newRequest(page, o, m, data)
		r.granted = true
		e.granted = append(e.granted, r)
		t.addHeld(o, r)
		return r, true
	}
	t.conflicts++
	r := t.newRequest(page, o, m, data)
	r.queued = true
	e.queue = append(e.queue, r)
	t.waiting[o] = r
	return r, false
}

// addHeld records a granted request in the per-owner index, reusing a
// pooled backing array for first-time owners.
func (t *Table) addHeld(o Owner, r *Request) {
	hs, ok := t.held[o]
	if !ok {
		hs = t.newHeld()
	}
	t.held[o] = append(hs, r)
}

// promote grants queued requests that have become compatible, in FIFO
// order, stopping at the first request that must keep waiting. It
// returns the newly granted requests.
func (t *Table) promote(page model.PageID, e *entry) []*Request {
	var grantedNow []*Request
	for len(e.queue) > 0 {
		head := e.queue[0]
		if head.upgrade {
			if len(e.granted) == 1 && e.granted[0].Owner == head.Owner {
				e.granted[0].Mode = model.LockWrite
				head.granted = true
				e.queue = e.queue[1:]
				delete(t.waiting, head.Owner)
				grantedNow = append(grantedNow, head)
				continue
			}
			break
		}
		if !e.compatibleWithGranted(head.Owner, head.Mode) {
			break
		}
		head.granted = true
		e.granted = append(e.granted, head)
		t.addHeld(head.Owner, head)
		e.queue = e.queue[1:]
		delete(t.waiting, head.Owner)
		grantedNow = append(grantedNow, head)
		if head.Mode == model.LockWrite {
			break
		}
	}
	if len(e.queue) == 0 && len(e.granted) == 0 {
		delete(t.shards[shardOf(page)], page)
		e.granted = e.granted[:0]
		e.queue = e.queue[:0]
		t.freeEntries = append(t.freeEntries, e)
	}
	return grantedNow
}

// Release drops o's lock on page and returns the requests that became
// granted as a result.
func (t *Table) Release(page model.PageID, o Owner) []*Request {
	e := t.entryOf(page)
	if e == nil {
		return nil
	}
	for i, r := range e.granted {
		if r.Owner == o {
			e.granted = append(e.granted[:i], e.granted[i+1:]...)
			t.removeHeld(o, r)
			t.recycleRequest(r)
			break
		}
	}
	return t.promote(page, e)
}

// ReleaseAll drops every lock held by o (commit phase 2 or abort) and
// returns all newly granted requests. A waiting request of o, if any,
// is cancelled as well.
func (t *Table) ReleaseAll(o Owner) []*Request {
	t.CancelWaiting(o)
	reqs := t.held[o]
	delete(t.held, o)
	var grantedNow []*Request
	for _, r := range reqs {
		e := t.entryOf(r.Page)
		if e == nil {
			continue
		}
		for i, g := range e.granted {
			if g.Owner == o {
				e.granted = append(e.granted[:i], e.granted[i+1:]...)
				break
			}
		}
		grantedNow = append(grantedNow, t.promote(r.Page, e)...)
		t.recycleRequest(r)
	}
	t.recycleHeld(reqs)
	return grantedNow
}

// CancelWaiting removes o's waiting request, if any, and returns
// requests that became granted because the cancellation unblocked the
// queue.
func (t *Table) CancelWaiting(o Owner) []*Request {
	w := t.waiting[o]
	if w == nil {
		return nil
	}
	delete(t.waiting, o)
	e := t.entryOf(w.Page)
	if e == nil {
		return nil
	}
	for i, q := range e.queue {
		if q == w {
			e.queue = append(e.queue[:i], e.queue[i+1:]...)
			break
		}
	}
	return t.promote(w.Page, e)
}

// removeHeld deletes one granted request from the per-owner index.
func (t *Table) removeHeld(o Owner, r *Request) {
	hs := t.held[o]
	for i, h := range hs {
		if h == r {
			hs = append(hs[:i], hs[i+1:]...)
			break
		}
	}
	if len(hs) == 0 {
		delete(t.held, o)
		t.recycleHeld(hs)
	} else {
		t.held[o] = hs
	}
}

// HeldCount returns the number of locks o currently holds.
func (t *Table) HeldCount(o Owner) int { return len(t.held[o]) }

// HoldsLock reports whether o holds a lock on page in at least mode m.
func (t *Table) HoldsLock(page model.PageID, o Owner, m model.LockMode) bool {
	e := t.entryOf(page)
	if e == nil {
		return false
	}
	r := e.holds(o)
	return r != nil && (r.Mode == model.LockWrite || m == model.LockRead)
}

// Waiting returns o's outstanding waiting request, or nil.
func (t *Table) Waiting(o Owner) *Request { return t.waiting[o] }

// WaitingCount returns the number of requests currently queued behind
// a conflicting lock, for queue-depth sampling.
func (t *Table) WaitingCount() int { return len(t.waiting) }

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
	if len(t.waiting) == 0 {
		return nil
	}
	waiters := make([]Owner, 0, len(t.waiting))
	for o := range t.waiting {
		waiters = append(waiters, o)
	}
	sortOwners(waiters)
	var out []WaitEdge
	var hs []Owner
	for _, o := range waiters {
		hs = t.appendBlockers(hs[:0], t.waiting[o])
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
	e := t.entryOf(w.Page)
	if e == nil {
		return out
	}
	for _, g := range e.granted {
		if g.Owner == w.Owner {
			continue
		}
		if !w.Mode.Compatible(g.Mode) {
			out = append(out, g.Owner)
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
