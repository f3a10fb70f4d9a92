package lock

import (
	"testing"

	"gemsim/internal/model"
)

// TestHandleOutlivesAttemptWhileTableHoldsIt: an owner whose maker
// dropped its reference keeps its handle while a table still holds its
// locks, so the next owner gets another handle and the two owners'
// state stays apart; the handle is reused once the table released it.
func TestHandleOutlivesAttemptWhileTableHoldsIt(t *testing.T) {
	owners := NewOwners()
	tb := newTableFor(owners)
	a := owners.New(1, 1)
	tb.Request(pg(1), a, model.LockWrite, nil)
	tb.Request(pg(2), a, model.LockRead, nil)
	owners.Release(a) // the attempt ended; its locks stay
	b := owners.New(1, 2)
	if b.Index() == a.Index() {
		t.Fatalf("%v got the handle of %v, whose locks are still held", b, a)
	}
	tb.Request(pg(3), b, model.LockWrite, nil)
	if tb.HeldCount(a) != 2 || tb.HeldCount(b) != 1 || tb.HoldsLock(pg(3), a, model.LockRead) || tb.HoldsLock(pg(1), b, model.LockRead) {
		t.Fatalf("held a=%d b=%d, want a's two locks and b's one apart", tb.HeldCount(a), tb.HeldCount(b))
	}
	tb.ReleaseAll(a)
	if owners.Live() != 1 {
		t.Fatalf("%d handles live, want b's alone once a's locks are released", owners.Live())
	}
	c := owners.New(1, 3)
	if c.Index() != a.Index() {
		t.Fatalf("%v did not reuse the handle %v freed last", c, a)
	}
	// a's handle is c's now: a finds nothing, c starts empty.
	if tb.HeldCount(a) != 0 || tb.Waiting(a) != nil || tb.HeldCount(c) != 0 {
		t.Fatal("a stale owner must find no state under its reused handle")
	}
	tb.ReleaseAll(b)
	owners.Release(b)
	owners.Release(c)
	if owners.Live() != 0 {
		t.Fatalf("%d handles live after every reference was dropped", owners.Live())
	}
}

// TestWaitingHoldsHandle: a waiting request alone keeps its owner's
// handle, and a cancellation lets it go.
func TestWaitingHoldsHandle(t *testing.T) {
	owners := NewOwners()
	tb := newTableFor(owners)
	holder, waiter := owners.New(0, 1), owners.New(1, 2)
	tb.Request(pg(1), holder, model.LockWrite, nil)
	tb.Request(pg(1), waiter, model.LockRead, nil)
	owners.Release(waiter)
	if owners.Live() != 2 || tb.WaitingCount() != 1 {
		t.Fatalf("%d handles live, %d waiting: the queued request must keep its owner's handle", owners.Live(), tb.WaitingCount())
	}
	tb.CancelWaiting(waiter)
	if owners.Live() != 1 || tb.WaitingCount() != 0 {
		t.Fatalf("%d handles live, %d waiting after the cancellation", owners.Live(), tb.WaitingCount())
	}
}

// TestReleaseOutOfGrantOrder releases single locks from the middle and
// both ends of an owner's held list, as PCL releases in page order,
// not grant order, and checks ReleaseAll still finds the rest.
func TestReleaseOutOfGrantOrder(t *testing.T) {
	tb := newTable()
	o := owner(0, 1)
	for p := int32(1); p <= 6; p++ {
		tb.Request(pg(p), o, model.LockWrite, nil)
	}
	for _, p := range []int32{3, 1, 6} {
		tb.Release(pg(p), o)
	}
	if tb.HeldCount(o) != 3 {
		t.Fatalf("held %d, want 3", tb.HeldCount(o))
	}
	tb.Request(pg(7), o, model.LockWrite, nil)
	tb.ReleaseAll(o)
	if tb.HeldCount(o) != 0 || len(tb.allEntries()) != 0 {
		t.Fatalf("held %d, %d entries left after ReleaseAll", tb.HeldCount(o), len(tb.allEntries()))
	}
}

// TestSharedHandlePanics: a request under a handle whose live state
// belongs to another owner is a lifetime bug, and panics.
func TestSharedHandlePanics(t *testing.T) {
	owners := NewOwners()
	tb := newTableFor(owners)
	a := owners.New(0, 1)
	tb.Request(pg(1), a, model.LockWrite, nil)
	forged := a
	forged.Tx = 2
	defer func() {
		if recover() == nil {
			t.Fatal("a request sharing a live owner's handle must panic")
		}
	}()
	tb.Request(pg(2), forged, model.LockWrite, nil)
}

// TestDiscardReleasesHandles: a table replaced at failover gives up
// the handles its owners' state held.
func TestDiscardReleasesHandles(t *testing.T) {
	owners := NewOwners()
	tb := newTableFor(owners)
	a, b := owners.New(0, 1), owners.New(1, 2)
	tb.Request(pg(1), a, model.LockRead, nil)
	tb.Request(pg(2), a, model.LockWrite, nil)
	tb.Request(pg(2), b, model.LockWrite, nil)
	owners.Release(a)
	owners.Release(b)
	tb.Discard()
	if owners.Live() != 0 {
		t.Fatalf("%d handles live after Discard", owners.Live())
	}
}
