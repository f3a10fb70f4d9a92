package lock

import (
	"testing"

	"gemsim/internal/model"
)

func TestNoCycleWhenWaitingOnFreeChain(t *testing.T) {
	tb := NewTable("t")
	d := NewDetector(tb)
	tb.Request(pg(1), owner(0, 1), model.LockWrite, nil)
	tb.Request(pg(1), owner(1, 2), model.LockWrite, nil) // waits on t1
	if cycle := d.FindCycle(owner(1, 2)); cycle != nil {
		t.Fatalf("false cycle %v", cycle)
	}
}

func TestTwoTxnDeadlock(t *testing.T) {
	tb := NewTable("t")
	d := NewDetector(tb)
	tb.Request(pg(1), owner(0, 1), model.LockWrite, nil)
	tb.Request(pg(2), owner(1, 2), model.LockWrite, nil)
	tb.Request(pg(2), owner(0, 1), model.LockWrite, nil) // t1 waits on t2
	tb.Request(pg(1), owner(1, 2), model.LockWrite, nil) // t2 waits on t1 -> cycle
	cycle := d.FindCycle(owner(1, 2))
	if cycle == nil {
		t.Fatal("deadlock not detected")
	}
	if v := Victim(cycle); v != owner(1, 2) {
		t.Fatalf("victim %v, want youngest n1/t2", v)
	}
	if d.Cycles() != 1 {
		t.Fatalf("cycle count %d", d.Cycles())
	}
}

func TestThreeTxnDeadlockAcrossTables(t *testing.T) {
	// PCL-style: locks spread over two GLA tables, global deadlock.
	ta := NewTable("GLA0")
	tc := NewTable("GLA1")
	d := NewDetector(ta, tc)
	ta.Request(pg(1), owner(0, 1), model.LockWrite, nil)
	tc.Request(pg(2), owner(1, 2), model.LockWrite, nil)
	ta.Request(pg(3), owner(2, 3), model.LockWrite, nil)
	tc.Request(pg(2), owner(0, 1), model.LockWrite, nil) // t1 -> t2
	ta.Request(pg(3), owner(1, 2), model.LockWrite, nil) // t2 -> t3
	ta.Request(pg(1), owner(2, 3), model.LockWrite, nil) // t3 -> t1, cycle
	cycle := d.FindCycle(owner(2, 3))
	if cycle == nil {
		t.Fatal("cross-table deadlock not detected")
	}
	if len(cycle) != 3 {
		t.Fatalf("cycle %v, want 3 members", cycle)
	}
	if v := Victim(cycle); v != owner(2, 3) {
		t.Fatalf("victim %v, want youngest", v)
	}
}

func TestUpgradeDeadlock(t *testing.T) {
	// Two readers both upgrading: the classic conversion deadlock.
	tb := NewTable("t")
	d := NewDetector(tb)
	tb.Request(pg(1), owner(0, 1), model.LockRead, nil)
	tb.Request(pg(1), owner(1, 2), model.LockRead, nil)
	tb.Request(pg(1), owner(0, 1), model.LockWrite, nil) // upgrade waits
	tb.Request(pg(1), owner(1, 2), model.LockWrite, nil) // upgrade waits -> cycle
	cycle := d.FindCycle(owner(1, 2))
	if cycle == nil {
		t.Fatal("conversion deadlock not detected")
	}
}

func TestCycleResolutionByAbort(t *testing.T) {
	tb := NewTable("t")
	d := NewDetector(tb)
	tb.Request(pg(1), owner(0, 1), model.LockWrite, nil)
	tb.Request(pg(2), owner(1, 2), model.LockWrite, nil)
	tb.Request(pg(2), owner(0, 1), model.LockWrite, nil)
	tb.Request(pg(1), owner(1, 2), model.LockWrite, nil)
	cycle := d.FindCycle(owner(0, 1))
	if cycle == nil {
		t.Fatal("no cycle")
	}
	v := Victim(cycle)
	tb.CancelWaiting(v)
	granted := tb.ReleaseAll(v)
	if len(granted) == 0 {
		t.Fatal("aborting the victim must unblock the survivor")
	}
	if c := d.FindCycle(owner(0, 1)); c != nil {
		t.Fatalf("cycle persists after abort: %v", c)
	}
}

func TestLoneHolderIsNotACycle(t *testing.T) {
	tb := NewTable("t")
	d := NewDetector(tb)
	tb.Request(pg(1), owner(0, 1), model.LockWrite, nil)
	if cycle := d.FindCycle(owner(0, 1)); cycle != nil {
		t.Fatal("holder without waits cannot be in a cycle")
	}
}

func TestSelfUpgradeIsNotACycle(t *testing.T) {
	// Sole reader upgrading to write: the conversion grants immediately,
	// and even while other readers block the upgrade, the upgrader's
	// blocker set must never include itself (a self-edge would make
	// every blocked upgrade look like an instant one-node deadlock).
	tb := NewTable("t")
	d := NewDetector(tb)
	if _, granted := tb.Request(pg(1), owner(0, 1), model.LockRead, nil); !granted {
		t.Fatal("first read lock must grant")
	}
	if _, granted := tb.Request(pg(1), owner(0, 1), model.LockWrite, nil); !granted {
		t.Fatal("sole-reader upgrade must grant immediately")
	}
	tb.Request(pg(2), owner(0, 1), model.LockRead, nil)
	tb.Request(pg(2), owner(1, 2), model.LockRead, nil)
	tb.Request(pg(2), owner(0, 1), model.LockWrite, nil) // blocked upgrade
	for _, b := range d.appendBlockers(nil, owner(0, 1)) {
		if b == owner(0, 1) {
			t.Fatal("blocked upgrade lists its own owner as a blocker")
		}
	}
	if cycle := d.FindCycle(owner(0, 1)); cycle != nil {
		t.Fatalf("blocked upgrade reported as self-deadlock: %v", cycle)
	}
	if d.Cycles() != 0 {
		t.Fatalf("cycle count %d after no deadlocks", d.Cycles())
	}
}

func TestVictimAlreadyAborted(t *testing.T) {
	// The victim of a detected cycle can disappear before resolution
	// runs (its node crashed, or a concurrent conflict aborted it).
	// Cancelling just its waiting edge must already break the cycle;
	// releasing its granted locks then unblocks the survivor.
	tb := NewTable("t")
	d := NewDetector(tb)
	tb.Request(pg(1), owner(0, 1), model.LockWrite, nil)
	tb.Request(pg(2), owner(1, 2), model.LockWrite, nil)
	tb.Request(pg(2), owner(0, 1), model.LockWrite, nil)
	tb.Request(pg(1), owner(1, 2), model.LockWrite, nil)
	cycle := d.FindCycle(owner(0, 1))
	if cycle == nil {
		t.Fatal("no cycle")
	}
	v := Victim(cycle)
	if granted := tb.CancelWaiting(v); len(granted) != 0 {
		// The victim's waiting request was not at the head of a queue
		// anyone else could enter behind, so nothing grants yet.
		t.Fatalf("cancelling the victim's wait granted %d requests", len(granted))
	}
	if c := d.FindCycle(owner(0, 1)); c != nil {
		t.Fatalf("cycle persists after the victim's wait is gone: %v", c)
	}
	// Re-detecting from the vanished victim itself must be a no-op.
	if c := d.FindCycle(v); c != nil {
		t.Fatalf("aborted victim still on a cycle: %v", c)
	}
	if granted := tb.ReleaseAll(v); len(granted) == 0 {
		t.Fatal("releasing the victim's locks must unblock the survivor")
	}
	if d.Cycles() != 1 {
		t.Fatalf("cycle count %d, want exactly the one detected cycle", d.Cycles())
	}
}

func TestVictimDeterministicAcrossStartPoints(t *testing.T) {
	// Eager detection runs from whichever transaction blocked last, so
	// the same deadlock can be discovered starting at any member. The
	// victim (youngest TxID) must not depend on the entry point —
	// that is what keeps sweep tables byte-identical for any -jobs
	// value when a deadlock occurs.
	build := func() (*Table, *Detector) {
		tb := NewTable("t")
		d := NewDetector(tb)
		tb.Request(pg(1), owner(0, 5), model.LockWrite, nil)
		tb.Request(pg(2), owner(1, 3), model.LockWrite, nil)
		tb.Request(pg(3), owner(2, 9), model.LockWrite, nil)
		tb.Request(pg(2), owner(0, 5), model.LockWrite, nil) // t5 -> t3
		tb.Request(pg(3), owner(1, 3), model.LockWrite, nil) // t3 -> t9
		tb.Request(pg(1), owner(2, 9), model.LockWrite, nil) // t9 -> t5
		return tb, d
	}
	want := owner(2, 9) // youngest = largest TxID
	for _, start := range []Owner{owner(0, 5), owner(1, 3), owner(2, 9)} {
		_, d := build()
		cycle := d.FindCycle(start)
		if cycle == nil {
			t.Fatalf("cycle not found from %v", start)
		}
		if v := Victim(cycle); v != want {
			t.Errorf("victim %v starting from %v, want %v", v, start, want)
		}
	}
}
