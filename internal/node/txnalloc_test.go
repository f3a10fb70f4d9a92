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
// (100 TPS per node, NOFORCE, affinity routing) on the given coupling,
// with messages exchanged across GEM when gemMessaging is set, warms it
// up so every pool, map and calendar bucket reaches its steady
// size, and returns the heap allocations and bytes allocated per
// committed transaction over the following window.
func txnAllocsPerCommit(t *testing.T, coupling Coupling, gemMessaging bool, nodes int) (allocs, bytes float64) {
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
// lock request (lock queues and messages may still hold it after the
// wait, so it is never pooled), a frame per buffer miss and the messages
// themselves. The allocation ceilings sit just above the measured values
// (7.1 under GEM, 8.2 under PCL, 8.2 under PCL with GEM messaging), so a
// change that puts an allocation back on the transaction path fails
// here. The GEM-messaging row pins the store transport: its deposits and
// pickups run through pooled records like the network's deliveries.
// Bytes per commit (about 590 under GEM, 640 under PCL) must stay under
// maxBytesPerCommit: the first touch of an ACCOUNT page adds one slot to
// the GEM page metadata, not a block of slots for pages never touched.
func TestTxnAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	const maxBytesPerCommit = 1024
	for _, tc := range []struct {
		name         string
		coupling     Coupling
		gemMessaging bool
		max          float64
	}{
		{"GEM", CouplingGEM, false, 7.5},
		{"PCL", CouplingPCL, false, 8.75},
		{"PCL+GEM messaging", CouplingPCL, true, 8.75},
	} {
		allocs, bytes := txnAllocsPerCommit(t, tc.coupling, tc.gemMessaging, 4)
		t.Logf("%s: %.2f allocs, %.0f B per commit", tc.name, allocs, bytes)
		if allocs > tc.max {
			t.Errorf("%s: %.2f allocs per commit, want <= %.2f", tc.name, allocs, tc.max)
		}
		if bytes > maxBytesPerCommit {
			t.Errorf("%s: %.0f B per commit, want <= %d", tc.name, bytes, maxBytesPerCommit)
		}
	}
}
