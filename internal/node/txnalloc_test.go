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
// exchanged across GEM when gemMessaging is set, and returns its heap
// allocations and bytes per commit (allocsPerCommit).
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
	return allocsPerCommit(t, env, sys, rate)
}

// traceAllocsPerCommit runs a small synthetic trace (the Fig. 4.7
// generator, scaled down) with affinity routing at 50 TPS per node
// and the trace runs' path lengths and MPL, and returns its heap
// allocations and bytes per commit.
func traceAllocsPerCommit(t *testing.T, coupling Coupling, nodes int) (allocs, bytes float64) {
	t.Helper()
	gp := workload.DefaultTraceGenParams(11)
	gp.Transactions, gp.TotalPages, gp.AdHocTxns, gp.LargestRefs = 2000, 8000, 2, 1500
	tr, err := workload.GenerateTrace(gp)
	if err != nil {
		t.Fatal(err)
	}
	aff := routing.ComputeTraceAffinity(tr, nodes)
	params := DefaultParams(nodes)
	params.Coupling = coupling
	params.BufferPages = 1000
	params.BOTInstr, params.RefInstr, params.EOTInstr = 20000, 5000, 10000
	params.MPL = 256
	env := sim.NewEnv()
	defer env.Stop()
	sys, err := NewSystem(env, params, workload.NewTraceReplayer(tr), aff, aff)
	if err != nil {
		t.Fatal(err)
	}
	return allocsPerCommit(t, env, sys, 50)
}

// allocsPerCommit starts sys at rate TPS per node, warms it up so
// every pool, map and calendar bucket reaches its steady size, and
// returns the heap allocations and bytes allocated per committed
// transaction over the following window.
func allocsPerCommit(t *testing.T, env *sim.Env, sys *System, rate float64) (allocs, bytes float64) {
	t.Helper()
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
// transaction on four nodes. Under debit-credit what remains is the
// transaction's process record, its reference list, a frame per buffer
// miss while the pool fills and the growth of pooled records and maps:
// messages, wait records, page-I/O records and frames are recycled,
// and a replaced page's write-back spawns no process. The ceilings sit
// just above the measured values (about 2.5 per commit under GEM and
// PCL, with or without GEM messaging, and 3.8 under the lock engine
// with FORCE), so a change that puts an allocation back on the
// transaction path fails here. The GEM-messaging row pins the store
// transport: its deposits and pickups run through pooled records like
// the network's deliveries. Bytes per commit (about 240-340) must stay
// under maxBytesPerCommit: the first touch of an ACCOUNT page adds one
// slot to the GEM page metadata, not a block of slots for pages never
// touched.
//
// The trace rows run a small Fig. 4.7 trace, whose transactions make
// dozens of lock requests each, most of them remote under PCL: about
// 3.0 allocations and 1.7 KB per commit under PCL and 2.4 and 1.4 KB
// under GEM. Lock entries and request records, queued ones included,
// come from pooled chunks, so the lock table's growth while the
// backlog of the trace's long transactions builds up costs few
// objects; a pooled transaction record keeps its small per-partition
// release buffers across transactions of any size.
func TestTxnAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	const maxBytesPerCommit = 1024
	for _, tc := range []struct {
		name     string
		measure  func() (allocs, bytes float64)
		max      float64
		maxBytes float64
	}{
		{"GEM", func() (float64, float64) { return txnAllocsPerCommit(t, CouplingGEM, false, false, 4) }, 3, maxBytesPerCommit},
		{"PCL", func() (float64, float64) { return txnAllocsPerCommit(t, CouplingPCL, false, false, 4) }, 3, maxBytesPerCommit},
		{"PCL+GEM messaging", func() (float64, float64) { return txnAllocsPerCommit(t, CouplingPCL, false, true, 4) }, 3, maxBytesPerCommit},
		{"lock engine", func() (float64, float64) { return txnAllocsPerCommit(t, CouplingLockEngine, true, false, 4) }, 4, maxBytesPerCommit},
		{"trace PCL", func() (float64, float64) { return traceAllocsPerCommit(t, CouplingPCL, 4) }, 3.5, 2048},
		{"trace GEM", func() (float64, float64) { return traceAllocsPerCommit(t, CouplingGEM, 4) }, 3, 1600},
	} {
		allocs, bytes := tc.measure()
		t.Logf("%s: %.2f allocs, %.0f B per commit", tc.name, allocs, bytes)
		if allocs > tc.max {
			t.Errorf("%s: %.2f allocs per commit, want <= %.2f", tc.name, allocs, tc.max)
		}
		if bytes > tc.maxBytes {
			t.Errorf("%s: %.0f B per commit, want <= %.0f", tc.name, bytes, tc.maxBytes)
		}
	}
}
