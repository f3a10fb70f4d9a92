package lock

import (
	"testing"
	"testing/quick"

	"gemsim/internal/model"
	"gemsim/internal/pagedir"
)

// testPages is the number of pages newTable resolves up front.
const testPages = 256

// newTable returns a table over a directory of its own in which page
// n of file 1 has slot n, so that pg(n) names the page in any table.
func newTable() *Table {
	d := pagedir.New(0)
	for i := int32(0); i < testPages; i++ {
		d.Of(model.PageID{File: 1, Page: i})
	}
	return NewTable(d)
}

func pg(n int32) int32 { return n }

// allEntries lists the entries in use for invariant checks.
func (t *Table) allEntries() []*entry {
	var out []*entry
	for h := int32(1); h <= int32(len(t.entries)*chunk); h++ {
		if e := t.entry(h); t.dir.At(e.slot).Lock == h {
			out = append(out, e)
		}
	}
	return out
}

func owner(node int, tx int64) Owner { return Owner{Node: node, Tx: TxID(tx)} }

func TestGrantCompatibleReaders(t *testing.T) {
	tb := newTable()
	_, ok1 := tb.Request(pg(1), owner(0, 1), model.LockRead, nil)
	_, ok2 := tb.Request(pg(1), owner(1, 2), model.LockRead, nil)
	if !ok1 || !ok2 {
		t.Fatal("concurrent readers must be granted")
	}
	if tb.Conflicts() != 0 {
		t.Fatalf("conflicts %d", tb.Conflicts())
	}
}

func TestWriterConflictsWithReader(t *testing.T) {
	tb := newTable()
	tb.Request(pg(1), owner(0, 1), model.LockRead, nil)
	_, ok := tb.Request(pg(1), owner(1, 2), model.LockWrite, nil)
	if ok {
		t.Fatal("writer must wait for reader")
	}
	granted := tb.Release(pg(1), owner(0, 1))
	if len(granted) != 1 || granted[0].Request().Owner != owner(1, 2) {
		t.Fatalf("granted %v", granted)
	}
}

func TestFIFONoReaderBypass(t *testing.T) {
	tb := newTable()
	tb.Request(pg(1), owner(0, 1), model.LockRead, nil)  // granted
	tb.Request(pg(1), owner(1, 2), model.LockWrite, nil) // queued
	_, ok := tb.Request(pg(1), owner(2, 3), model.LockRead, nil)
	if ok {
		t.Fatal("reader must not bypass a queued writer (FIFO fairness)")
	}
	// Releasing the first reader grants the writer only.
	granted := tb.Release(pg(1), owner(0, 1))
	if len(granted) != 1 || granted[0].Request().Mode != model.LockWrite {
		t.Fatalf("granted %v", granted)
	}
	// Releasing the writer grants the reader.
	granted = tb.Release(pg(1), owner(1, 2))
	if len(granted) != 1 || granted[0].Request().Owner != owner(2, 3) {
		t.Fatalf("granted %v", granted)
	}
}

func TestRerequestIdempotent(t *testing.T) {
	tb := newTable()
	tb.Request(pg(1), owner(0, 1), model.LockWrite, nil)
	_, ok := tb.Request(pg(1), owner(0, 1), model.LockRead, nil)
	if !ok {
		t.Fatal("W holder re-requesting R must be granted")
	}
	_, ok = tb.Request(pg(1), owner(0, 1), model.LockWrite, nil)
	if !ok {
		t.Fatal("W holder re-requesting W must be granted")
	}
	if tb.Requests() != 3 {
		t.Fatalf("requests %d", tb.Requests())
	}
	if got := tb.HeldCount(owner(0, 1)); got != 1 {
		t.Fatalf("held %d, want 1", got)
	}
}

func TestUpgradeSoleHolder(t *testing.T) {
	tb := newTable()
	tb.Request(pg(1), owner(0, 1), model.LockRead, nil)
	req, ok := tb.Request(pg(1), owner(0, 1), model.LockWrite, nil)
	if !ok || req.Mode != model.LockWrite {
		t.Fatal("sole reader must upgrade immediately")
	}
}

func TestUpgradeWaitsForOtherReaders(t *testing.T) {
	tb := newTable()
	tb.Request(pg(1), owner(0, 1), model.LockRead, nil)
	tb.Request(pg(1), owner(1, 2), model.LockRead, nil)
	_, ok := tb.Request(pg(1), owner(0, 1), model.LockWrite, nil)
	if ok {
		t.Fatal("upgrade must wait for the second reader")
	}
	granted := tb.Release(pg(1), owner(1, 2))
	if len(granted) != 1 || !granted[0].Request().Granted() {
		t.Fatalf("granted %v", granted)
	}
	if !tb.HoldsLock(pg(1), owner(0, 1), model.LockWrite) {
		t.Fatal("upgrade did not take effect")
	}
}

func TestUpgradePrecedesQueuedRequests(t *testing.T) {
	tb := newTable()
	tb.Request(pg(1), owner(0, 1), model.LockRead, nil)
	tb.Request(pg(1), owner(1, 2), model.LockRead, nil)
	tb.Request(pg(1), owner(2, 3), model.LockWrite, nil) // queued
	tb.Request(pg(1), owner(0, 1), model.LockWrite, nil) // upgrade, goes first
	granted := tb.Release(pg(1), owner(1, 2))
	if len(granted) != 1 || granted[0].Request().Owner != owner(0, 1) {
		t.Fatalf("granted %v, want upgrade of n0/t1", granted)
	}
}

func TestReleaseAllGrantsWaiters(t *testing.T) {
	tb := newTable()
	tb.Request(pg(1), owner(0, 1), model.LockWrite, nil)
	tb.Request(pg(2), owner(0, 1), model.LockWrite, nil)
	tb.Request(pg(1), owner(1, 2), model.LockRead, nil)
	tb.Request(pg(2), owner(2, 3), model.LockRead, nil)
	granted := tb.ReleaseAll(owner(0, 1))
	if len(granted) != 2 {
		t.Fatalf("granted %d, want 2", len(granted))
	}
	if tb.HeldCount(owner(0, 1)) != 0 {
		t.Fatal("locks remain after ReleaseAll")
	}
}

func TestCancelWaitingUnblocksQueue(t *testing.T) {
	tb := newTable()
	tb.Request(pg(1), owner(0, 1), model.LockRead, nil)
	tb.Request(pg(1), owner(1, 2), model.LockWrite, nil) // queued
	tb.Request(pg(1), owner(2, 3), model.LockRead, nil)  // queued behind W
	granted := tb.CancelWaiting(owner(1, 2))
	if len(granted) != 1 || granted[0].Request().Owner != owner(2, 3) {
		t.Fatalf("granted %v, want reader n2/t3", granted)
	}
	if tb.Waiting(owner(1, 2)) != nil {
		t.Fatal("cancelled request still waiting")
	}
}

func TestHoldsLock(t *testing.T) {
	tb := newTable()
	tb.Request(pg(1), owner(0, 1), model.LockRead, nil)
	if !tb.HoldsLock(pg(1), owner(0, 1), model.LockRead) {
		t.Fatal("R lock not reported")
	}
	if tb.HoldsLock(pg(1), owner(0, 1), model.LockWrite) {
		t.Fatal("W lock misreported")
	}
	if tb.HoldsLock(pg(2), owner(0, 1), model.LockRead) {
		t.Fatal("lock on other page misreported")
	}
}

func TestEntryCleanupOnRelease(t *testing.T) {
	tb := newTable()
	tb.Request(pg(1), owner(0, 1), model.LockWrite, nil)
	tb.Release(pg(1), owner(0, 1))
	if n := len(tb.allEntries()); n != 0 {
		t.Fatalf("entries not cleaned up: %d", n)
	}
}

// TestTableInvariantsProperty drives random request/release sequences
// and checks core invariants: granted holders are pairwise compatible,
// and no request is both granted and queued.
func TestTableInvariantsProperty(t *testing.T) {
	type op struct {
		Tx      uint8
		Page    uint8
		Write   bool
		Release bool
	}
	err := quick.Check(func(ops []op) bool {
		tb := newTable()
		for _, o := range ops {
			ow := owner(int(o.Tx%4), int64(o.Tx%8)+1)
			p := pg(int32(o.Page % 4))
			if o.Release {
				tb.ReleaseAll(ow)
			} else if tb.Waiting(ow) == nil {
				mode := model.LockRead
				if o.Write {
					mode = model.LockWrite
				}
				tb.Request(p, ow, mode, nil)
			}
			// Invariant: granted holders pairwise compatible.
			for _, e := range tb.allEntries() {
				for i, a := range e.granted {
					for _, b := range e.granted[i+1:] {
						if a.owner == b.owner {
							return false // duplicate holder entries
						}
						if !a.mode.Compatible(b.mode) && !(a.mode == model.LockWrite || b.mode == model.LockWrite) {
							return false
						}
						if a.mode == model.LockWrite || b.mode == model.LockWrite {
							return false // W must be exclusive
						}
					}
				}
				for _, q := range e.queue {
					if q.Granted() {
						return false
					}
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}
