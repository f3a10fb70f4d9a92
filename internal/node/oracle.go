package node

import (
	"fmt"

	"gemsim/internal/model"
)

// oracle is the CheckInvariants observer of the true page version
// state. It only observes: no model decision reads it, and without
// CheckInvariants no oracle exists (every method is a no-op on a nil
// receiver). It asserts the coherency protocol invariants:
//
//   - a transaction holding a lock always accesses the current
//     committed version of the page;
//   - the protocol only directs a node to permanent storage when the
//     storage copy is current;
//   - the storage copy never regresses to an older version.
type oracle struct {
	// latest is the committed sequence number per page.
	latest map[model.PageID]uint64
	// storageSeq is the version on permanent storage (disk, disk
	// cache or GEM-resident file).
	storageSeq map[model.PageID]uint64
}

func newOracle() *oracle {
	return &oracle{
		latest:     make(map[model.PageID]uint64),
		storageSeq: make(map[model.PageID]uint64),
	}
}

// commit records a new committed version.
func (o *oracle) commit(page model.PageID, seq uint64) {
	if o == nil {
		return
	}
	if cur := o.latest[page]; seq <= cur {
		panic(fmt.Sprintf("oracle: commit of page %v regresses seq %d -> %d", page, cur, seq))
	}
	o.latest[page] = seq
}

// storageWrite records that a version reached permanent storage.
func (o *oracle) storageWrite(page model.PageID, seq uint64) {
	if o == nil {
		return
	}
	if cur := o.storageSeq[page]; seq < cur {
		panic(fmt.Sprintf("oracle: storage copy of page %v regresses seq %d -> %d", page, cur, seq))
	}
	o.storageSeq[page] = seq
}

// checkStorageRead asserts that reading the page from permanent storage
// yields the version the protocol promised. Unlocked files are exempt
// (their coherency is managed by the application, e.g. per-node
// HISTORY pages).
func (o *oracle) checkStorageRead(page model.PageID, expectSeq uint64, locked bool) {
	if o == nil || !locked {
		return
	}
	if got := o.storageSeq[page]; got < expectSeq {
		panic(fmt.Sprintf("oracle: stale storage read of page %v: storage has %d, protocol promised %d", page, got, expectSeq))
	}
}

// checkAccess asserts that a buffer access under lock protection sees
// the current committed version (or a version being created by the
// accessing transaction itself, which is strictly newer).
func (o *oracle) checkAccess(page model.PageID, seq uint64, locked bool) {
	if o == nil || !locked {
		return
	}
	if cur := o.latest[page]; seq < cur {
		panic(fmt.Sprintf("oracle: access to obsolete version of page %v: have %d, committed %d", page, seq, cur))
	}
}
