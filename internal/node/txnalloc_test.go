package node

import (
	"runtime"
	"testing"
	"time"

	"gemsim/internal/routing"
	"gemsim/internal/sim"
	"gemsim/internal/workload"
)

// txnAllocsPerCommit runs the Table 4.1 debit-credit configuration
// (100 TPS per node, affinity routing) on the given coupling, under
// FORCE when force is set (the lock engine needs it), with messages
// exchanged across GEM when gemMessaging is set, warms it
// up so every pool, map and calendar bucket reaches its steady
// size, and returns the heap allocations and bytes allocated per
// committed transaction over the following window.
func txnAllocsPerCommit(t *testing.T, coupling Coupling, force, gemMessaging bool, nodes int) (allocs, bytes float64) {
	t.Helper()
	const rate = 100
	dcParams := workload.DefaultDebitCreditParams(rate * float64(nodes))
	dc, err := workload.NewDebitCredit(dcParams)
	if err != nil {
		t.Fatal(err)
	}
	aff := routing.NewDebitCreditAffinity(nodes, dcParams)
	params := DefaultParams(nodes)
	params.Coupling = coupling
	params.Force = force
	params.GEMMessaging = gemMessaging
	params.HotPage = dc.HotPage
	env := sim.NewEnv()
	defer env.Stop()
	sys, err := NewSystem(env, params, dc, aff, aff)
	if err != nil {
		t.Fatal(err)
	}
	sys.Start(rate)
	if err := env.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	sys.ResetStats()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := env.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	commits := sys.Snapshot().Commits
	if commits == 0 {
		t.Fatal("no transaction committed")
	}
	n := float64(commits)
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n
}

// TestTxnAllocs pins the heap allocations and bytes per committed
// debit-credit transaction on four nodes. What remains is the
// transaction's process record, its reference list, one wait record per
// lock request that queues or goes to a remote node (lock queues and
// messages may still hold it after the wait, so it is never pooled), a
// frame per buffer miss and the messages themselves. The allocation
// ceilings sit just above the measured values (5.1 under GEM, 6.4 under
// PCL, 6.3 under PCL with GEM messaging, 13.0 under the lock engine with
// FORCE, whose commit broadcast adds a page list, a wait record and the
// invalidations and acknowledgements), so a
// change that puts an allocation back on the transaction path fails
// here. The GEM-messaging row pins the store transport: its deposits and
// pickups run through pooled records like the network's deliveries.
// Bytes per commit (about 400 under GEM, 460 under PCL, 810 under the
// lock engine) must stay under maxBytesPerCommit: the first touch of an
// ACCOUNT page adds one slot to the GEM page metadata, not a block of
// slots for pages never touched.
func TestTxnAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	const maxBytesPerCommit = 1024
	for _, tc := range []struct {
		name         string
		coupling     Coupling
		force        bool
		gemMessaging bool
		max          float64
	}{
		{"GEM", CouplingGEM, false, false, 5.5},
		{"PCL", CouplingPCL, false, false, 6.75},
		{"PCL+GEM messaging", CouplingPCL, false, true, 6.75},
		{"lock engine", CouplingLockEngine, true, false, 13.4},
	} {
		allocs, bytes := txnAllocsPerCommit(t, tc.coupling, tc.force, tc.gemMessaging, 4)
		t.Logf("%s: %.2f allocs, %.0f B per commit", tc.name, allocs, bytes)
		if allocs > tc.max {
			t.Errorf("%s: %.2f allocs per commit, want <= %.2f", tc.name, allocs, tc.max)
		}
		if bytes > maxBytesPerCommit {
			t.Errorf("%s: %.0f B per commit, want <= %d", tc.name, bytes, maxBytesPerCommit)
		}
	}
}
