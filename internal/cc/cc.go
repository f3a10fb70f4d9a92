// Package cc holds the data of the pluggable concurrency-control
// engines. The coupling modes of the paper fix one protocol each —
// two-phase locking against a GEM-resident lock table under close
// coupling, primary copy locking under loose coupling — but the design
// space is wider: multiversion timestamp ordering and
// backward-validation optimistic engines trade abort work against lock
// waiting [La11], and Thomasian's heterogeneous data access model locks
// the hot set while running the cold tail optimistically [Th93].
//
// The package is pure state: a Kind naming each engine, the Outcome
// every mediated access reports to the buffer manager, the Reason and
// Conflict of an engine abort, and the MV-TO VersionStore. The engines
// themselves live with the transaction manager (internal/node), which
// keeps each attempt's observed versions on its transaction record and
// owns the cost model: every metadata access is charged against the
// simulated GEM device, CPU, or network according to the coupling mode.
package cc

import (
	"fmt"

	"gemsim/internal/model"
)

// Kind selects a concurrency-control engine.
type Kind int

const (
	// KindDefault is the protocol-native two-phase locking of the
	// configured coupling mode: the GEM lock table under close
	// coupling, primary copy locking under loose coupling, the central
	// lock engine of the [Yu87] baseline.
	KindDefault Kind = iota
	// KindMVTO is multiversion timestamp ordering: reads never block
	// or abort (a reader observes the newest version committed at or
	// before its timestamp), writes follow first-committer-wins.
	KindMVTO
	// KindOCC is backward-validation optimistic concurrency control:
	// accesses record the committed version they observed, a costed
	// validation at end-of-transaction re-checks the whole set, and
	// conflicts restart the transaction with exponential backoff.
	KindOCC
	// KindHAD is the heterogeneous data access model [Th93]: pages of
	// the workload's hot set are accessed under 2PL, the cold tail
	// optimistically.
	KindHAD
)

// String names the engine as accepted by Parse.
func (k Kind) String() string {
	switch k {
	case KindMVTO:
		return "mvto"
	case KindOCC:
		return "occ"
	case KindHAD:
		return "had"
	default:
		return "2pl"
	}
}

// Valid reports whether k names a known engine.
func Valid(k Kind) bool { return k >= KindDefault && k <= KindHAD }

// Parse maps an engine name to its Kind. The empty string selects the
// default engine.
func Parse(s string) (Kind, error) {
	switch s {
	case "", "2pl", "default":
		return KindDefault, nil
	case "mvto":
		return KindMVTO, nil
	case "occ":
		return KindOCC, nil
	case "had":
		return KindHAD, nil
	default:
		return 0, fmt.Errorf("cc: unknown engine %q (want 2pl, mvto, occ or had)", s)
	}
}

// Outcome is what a mediated page access tells the buffer manager: the
// committed global sequence number the access must observe (a cached
// copy below it is invalid), where the current version can be obtained,
// and whether the grant already carried the page.
type Outcome struct {
	// Seq is the committed sequence number of the page version the
	// access observes.
	Seq uint64
	// Owner is the node buffering the current version under NOFORCE;
	// -1 means permanent storage is current.
	Owner int
	// Carried reports that the reply itself carried the page copy.
	Carried bool
}

// Reason classifies engine-initiated aborts; it is the trace argument
// of the cc-abort and txn/abort instants.
type Reason string

const (
	// ReasonValidation: backward validation found a page of the
	// recorded set overwritten by a concurrent committer.
	ReasonValidation Reason = "validation"
	// ReasonLateWrite: an MV-TO write arrived after a younger reader
	// observed the predecessor version (or a younger writer committed).
	ReasonLateWrite Reason = "late-write"
	// ReasonWW: a first-committer-wins re-check found a concurrent
	// committed write on a page of the publish set.
	ReasonWW Reason = "ww-conflict"
)

// Reasons lists every Reason; the trace schema checks cc-abort and
// txn/abort arguments against it.
var Reasons = []Reason{ReasonValidation, ReasonLateWrite, ReasonWW}

// Conflict is the abort error of the optimistic engines; the hosting
// transaction manager rolls the attempt back and restarts it with
// exponential backoff.
type Conflict struct {
	Reason Reason
	Page   model.PageID
}

func (c *Conflict) Error() string {
	return fmt.Sprintf("cc: %s conflict on page %v, restart", c.Reason, c.Page)
}
