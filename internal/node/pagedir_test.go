package node

import (
	"testing"
	"time"

	"gemsim/internal/lock"
	"gemsim/internal/model"
	"gemsim/internal/sim"
)

// TestGLAMigrationKeepsLockEntries: a GLA partition handed to a new
// home keeps its lock table, and every page's directory slot still
// reaches its lock entry and metadata there: the held locks stay held,
// the queued request is granted by the release after the move, and the
// committed sequence numbers are unchanged.
func TestGLAMigrationKeepsLockEntries(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	sys, err := NewSystem(env, testParams(2, CouplingPCL, false), &scriptGen{db: testDB()}, typeRouter{2}, modGLA{2})
	if err != nil {
		t.Fatal(err)
	}
	sys.StartControl()
	holder, waiter := lock.Owner{Node: 0, Tx: 1}, lock.Owner{Node: 0, Tx: 2}
	var slots []int32
	for p := int32(1); p < 20; p += 2 { // partition 1: odd pages
		slot := sys.dir.Of(pgID(p))
		if _, granted := sys.tables[1].Request(slot, holder, model.LockWrite, nil); !granted {
			t.Fatalf("page %d: write lock not granted", p)
		}
		sys.pclMetaOf(1, slot).Seq = uint64(p)
		slots = append(slots, slot)
	}
	if _, granted := sys.tables[1].Request(slots[0], waiter, model.LockRead, nil); granted {
		t.Fatal("conflicting read lock granted")
	}
	sys.ctl.startMigration(1, 1, 0)
	if err := env.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if home := sys.glaHomeOf(1); home != 0 {
		t.Fatalf("partition 1 served by node %d after the migration, want 0", home)
	}
	for i, slot := range slots {
		if !sys.tables[1].HoldsLock(slot, holder, model.LockWrite) {
			t.Errorf("page %v: write lock lost in the migration", sys.dir.Page(slot))
		}
		if seq := sys.dir.At(slot).Seq; seq != uint64(2*i+1) {
			t.Errorf("page %v: seq %d after the migration, want %d", sys.dir.Page(slot), seq, 2*i+1)
		}
	}
	granted := sys.tables[1].ReleaseAll(holder)
	if len(granted) != 1 || granted[0].Request() == nil || granted[0].Request().Owner != waiter {
		t.Fatalf("release after the migration granted %v, want the queued reader", granted)
	}
}
