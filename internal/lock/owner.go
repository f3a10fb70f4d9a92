package lock

import "fmt"

// TxID identifies a transaction instance system-wide. Larger ids are
// younger transactions; deadlock resolution aborts the youngest member
// of a cycle.
type TxID int64

// Owner identifies a lock owner: a transaction instance running at a
// node, or a recovery fence. Owners are made by an Owners registry,
// which gives each a dense handle; the tables and the detector keep
// their per-owner state in slices indexed by it. The handle never
// orders anything and never reaches output: owners sort by (Node, Tx).
// Node is an int32 beside the handle so that an Owner stays 16 bytes,
// and with it every entry's inline holders.
type Owner struct {
	Node int32
	h    int32 // handle, > 0; see Owners
	Tx   TxID
}

// String formats the owner as node/tx.
func (o Owner) String() string { return fmt.Sprintf("n%d/t%d", o.Node, o.Tx) }

// Index returns the owner's handle, for per-owner state kept in a slice
// outside the package; it is 0 only for the zero Owner.
func (o Owner) Index() int { return int(o.h) }

// Owners hands out owner handles and counts the references to each:
// New gives its caller one, Retain adds one and Release drops one, and
// every table in which an owner holds or waits for a lock holds one
// more. A handle whose count falls to zero goes on a LIFO free list
// and is given to the next new owner, so a handle is reused only once
// nothing can still name its last owner. All tables and detectors that
// see the same owners must share one registry.
type Owners struct {
	refs []int32 // by handle; refs[0] is unused
	free []int32
}

// NewOwners returns an empty registry.
func NewOwners() *Owners { return &Owners{refs: make([]int32, 1)} }

// New returns a fresh owner of transaction tx at node, holding one
// reference to its handle.
func (r *Owners) New(node int, tx TxID) Owner {
	var h int32
	if n := len(r.free); n > 0 {
		h = r.free[n-1]
		r.free = r.free[:n-1]
	} else {
		h = int32(len(r.refs))
		r.refs = append(r.refs, 0)
	}
	r.refs[h] = 1
	return Owner{Node: int32(node), h: h, Tx: tx}
}

// Retain adds a reference to o's handle and returns o.
func (r *Owners) Retain(o Owner) Owner {
	r.refs[r.handle(o)]++
	return o
}

// Release drops a reference to o's handle, freeing the handle with its
// last one.
func (r *Owners) Release(o Owner) {
	h := r.handle(o)
	if r.refs[h]--; r.refs[h] == 0 {
		r.free = append(r.free, h)
	}
}

// Live returns the number of handles in use.
func (r *Owners) Live() int { return len(r.refs) - 1 - len(r.free) }

// handle returns o's handle, panicking unless r counts references to
// it: a free handle or one of another registry means a reference was
// dropped twice or an owner was made elsewhere.
func (r *Owners) handle(o Owner) int32 {
	if o.h <= 0 || int(o.h) >= len(r.refs) || r.refs[o.h] <= 0 {
		panic("lock: owner " + o.String() + " has no live handle")
	}
	return o.h
}

// grow returns s extended with zero values so that index h is valid.
func grow[T any](s []T, h int32) []T {
	if int(h) < len(s) {
		return s
	}
	return append(s, make([]T, int(h)+1-len(s))...)
}
