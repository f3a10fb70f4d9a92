package node

import (
	"gemsim/internal/cc"
	"gemsim/internal/lock"
	"gemsim/internal/model"
	"gemsim/internal/sim"
)

// Message types exchanged between nodes. All messages are delivered
// through the netsim package, which charges send/receive CPU overhead
// and the transmission delay.

// lockRequestMsg asks the GLA node for a lock (PCL). GLA names the
// partition (table index); after a failover it can be served by a node
// other than its original home.
type lockRequestMsg struct {
	Owner     lock.Owner
	Page      model.PageID
	Mode      model.LockMode
	GLA       int
	CachedSeq uint64 // requester's buffered version, 0 if none
	HasCopy   bool
	Wait      *remoteWait
}

// lockGrantMsg is the GLA's reply. For NOFORCE the current page version
// travels with the grant when the requester's copy is obsolete (then
// the reply is a long message).
type lockGrantMsg struct {
	Wait    *remoteWait
	Seq     uint64
	Carried bool // page attached (reply was a long message)
	// OwnerHasCopy tells the requester that the GLA node buffers the
	// current version: if the requester's own copy disappears before
	// the page is accessed, it must be fetched from the GLA rather
	// than from permanent storage.
	OwnerHasCopy bool
	GrantRA      bool // read authorization granted to the requester
	Deadlock     bool // request aborted as deadlock victim
}

// lockReleaseMsg releases a transaction's locks at one GLA partition
// (commit phase 2 or abort). Modified pages of the GLA's partition
// travel with the release (NOFORCE), making the message long.
type lockReleaseMsg struct {
	Owner lock.Owner
	GLA   int
	Pages []releasedPage
}

// lockCancelMsg withdraws a timed-out remote lock request at its GLA
// partition (fire-and-forget; the aborting transaction has already
// cleaned up its table state directly, so this only carries the
// message cost of a distributed cancel).
type lockCancelMsg struct {
	Owner lock.Owner
	GLA   int
}

// rebuildQueryMsg asks a surviving node to report its granted locks on
// the listed GLA partitions (PCL failover: the partitions of a crashed
// node are rebuilt at their new home from the survivors).
type rebuildQueryMsg struct {
	Partitions []int
	Wait       *remoteWait
}

// rebuildReplyMsg returns a survivor's lock entries for the queried
// partitions.
type rebuildReplyMsg struct {
	Entries []rebuildEntry
	Wait    *remoteWait
}

// rebuildEntry is one granted lock re-registered during GLA rebuild,
// with the sequence number of the survivor's buffered copy (0 if
// none), from which the partition's coherency metadata is re-derived.
type rebuildEntry struct {
	Page    model.PageID
	Owner   lock.Owner
	Mode    model.LockMode
	CopySeq uint64
}

// releasedPage is one lock released at the GLA.
type releasedPage struct {
	Page    model.PageID
	NewSeq  uint64 // 0 if not modified
	Carried bool   // modified page travels with the message (NOFORCE)
}

// pageRequestMsg asks the owner node for the current version of a page
// (GEM locking, NOFORCE).
type pageRequestMsg struct {
	Page      model.PageID
	Requester int
	Transfer  bool // write intent: ownership moves to the requester
	Wait      *remoteWait
}

// pageReplyMsg returns the page (long message) or reports that the
// owner no longer holds it.
type pageReplyMsg struct {
	Wait  *remoteWait
	Found bool
	Seq   uint64
}

// wakeupMsg notifies a waiting node that its GLT lock request was
// granted (GEM locking).
type wakeupMsg struct {
	Wait *remoteWait
}

// revokeRAMsg withdraws a read authorization (PCL read optimization).
type revokeRAMsg struct {
	Page model.PageID
}

// glaHandoffMsg carries one batch of a GLA partition's directory during
// a controller-initiated migration (long message: per-entry CPU is
// charged on both sides). Final marks the last batch, which the new
// home acknowledges.
type glaHandoffMsg struct {
	GLA     int
	From    int
	Entries int
	Final   bool
	Wait    *remoteWait
}

// glaHandoffAckMsg acknowledges the final handoff batch; the migration
// process at the old home flips the partition's authority on receipt.
type glaHandoffAckMsg struct {
	Wait *remoteWait
}

// ccOp selects the optimistic-engine metadata operation performed at a
// partition's serving node (PCL).
type ccOp int

const (
	ccOpLookup       ccOp = iota + 1 // OCC access: committed-version lookup
	ccOpVersionRead                  // MV-TO read: version-store read at TS
	ccOpVersionWrite                 // MV-TO write admission check
	ccOpValidate                     // batched end-of-transaction re-check
)

// ccOpPage is one page of an optimistic metadata operation, with the
// version observation recorded at access time (validate batches only).
type ccOpPage struct {
	Page     model.PageID
	Recorded uint64
}

// ccOpMsg asks a partition's serving node to perform an optimistic
// metadata operation against its GLA-side state (PCL; the optimistic
// engines' analogue of lockRequestMsg).
type ccOpMsg struct {
	Owner lock.Owner
	Op    ccOp
	GLA   int
	TS    uint64
	MVTO  bool // validate batches: re-check the version store, not raw seqs
	Pages []ccOpPage
	Wait  *remoteWait
}

// ccOpAckMsg is the serving node's reply to a ccOpMsg.
type ccOpAckMsg struct {
	Wait   *remoteWait
	Seq    uint64
	WTS    uint64
	Owner  bool // serving node buffers the current version
	OK     bool
	Reason cc.Reason
	Page   model.PageID // first failing page of a validate batch
}

// ccPublishMsg is the one-way commit publication of an optimistic
// engine to a remote partition (PCL): new page versions installed at
// the serving node, carried pages travelling with the message under
// NOFORCE (the analogue of lockReleaseMsg propagation).
type ccPublishMsg struct {
	Owner lock.Owner
	GLA   int
	TS    uint64
	MVTO  bool
	Pages []releasedPage
}

// invalidateMsg is the commit-time broadcast of [Yu87]-style coherency
// control (lock engine): the receiver discards its copies of the listed
// pages and acknowledges.
type invalidateMsg struct {
	Pages []model.PageID
	Wait  *remoteWait
}

// invalidateAckMsg acknowledges an invalidation broadcast.
type invalidateAckMsg struct {
	Wait *remoteWait
}

// remoteWait is the continuation of a process waiting for a reply
// message or a lock grant.
type remoteWait struct {
	proc *sim.Proc
	// ra marks the continuation of a locally processed read lock
	// under read authorization (no grant message on wake).
	ra bool
	// reply fields, set before Unpark.
	seq          uint64
	carried      bool
	ownerHasCopy bool
	grantRA      bool
	found        bool
	deadlock     bool
	// optimistic-engine reply fields (ccOpAckMsg), set before Unpark.
	ccWTS    uint64
	ccOK     bool
	ccReason cc.Reason
	ccPage   model.PageID
	// woken distinguishes a real reply from a timeout wake: every
	// message-delivery path sets it before Unpark.
	woken bool
	// abandoned is set by a waiter that gave up (timeout or crash);
	// message handlers drop the wait without unparking, so a late
	// reply cannot resume the process at an unrelated park point.
	abandoned bool
	// broadcast acknowledgement counting (lock engine coherency).
	acks   int
	needed int
}
