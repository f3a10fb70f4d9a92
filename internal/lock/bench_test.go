package lock

import (
	"testing"

	"gemsim/internal/model"
)

// BenchmarkRequestRelease measures the uncontended lock table fast
// path.
func BenchmarkRequestRelease(b *testing.B) {
	tb := newTable()
	o := owner(0, 1)
	p := pg(42)
	for i := 0; i < b.N; i++ {
		tb.Request(p, o, model.LockWrite, nil)
		tb.Release(p, o)
	}
}

// BenchmarkReleaseAll measures commit-time release of a realistic lock
// set.
func BenchmarkReleaseAll(b *testing.B) {
	tb := newTable()
	for i := 0; i < b.N; i++ {
		o := testOwners.New(0, TxID(i))
		for k := int32(0); k < 8; k++ {
			tb.Request(pg(k), o, model.LockRead, nil)
		}
		tb.ReleaseAll(o)
		testOwners.Release(o)
	}
}

// TestUncontendedCycleAllocFree asserts the allocation-free contract
// of the hot lock path: once the record pools are warm, an uncontended
// request/release cycle — and a full commit-time ReleaseAll over a
// multi-page lock set — performs zero heap allocations.
func TestUncontendedCycleAllocFree(t *testing.T) {
	tb := newTable()
	o := owner(0, 1)
	p := pg(42)
	tb.Request(p, o, model.LockWrite, nil)
	tb.Release(p, o)
	if n := testing.AllocsPerRun(200, func() {
		tb.Request(p, o, model.LockWrite, nil)
		tb.Release(p, o)
	}); n != 0 {
		t.Fatalf("request/release cycle allocates %.1f/op, want 0", n)
	}

	warm := func(tx TxID) {
		ow := testOwners.New(0, tx)
		for k := int32(0); k < 8; k++ {
			tb.Request(pg(k), ow, model.LockRead, nil)
		}
		tb.ReleaseAll(ow)
		testOwners.Release(ow)
	}
	warm(2)
	tx := TxID(3)
	if n := testing.AllocsPerRun(200, func() {
		warm(tx)
		tx++
	}); n != 0 {
		t.Fatalf("ReleaseAll cycle allocates %.1f/op, want 0", n)
	}
}

// BenchmarkDeadlockDetection measures a waits-for search over a chain
// of blocked transactions, from its tail: member i holds page i and
// waits for page i-1, so the search walks the whole chain.
func BenchmarkDeadlockDetection(b *testing.B) {
	tb := newTable()
	d := NewDetector(tb)
	const chain = 32
	var tail Owner
	for i := 0; i < chain; i++ {
		tail = testOwners.New(i%4, TxID(i+1))
		tb.Request(pg(int32(i)), tail, model.LockWrite, nil)
		if i > 0 {
			tb.Request(pg(int32(i-1)), tail, model.LockWrite, nil)
		}
	}
	benchFindNoCycle(b, d, tail)
}

// BenchmarkDeadlockConvoy measures the search a contended hot spot
// runs on every block: the writer holding the hot page waits for a
// page held elsewhere, and 32 writers queue behind it. The search from
// the last of them meets each one queued ahead, and the blockers of
// each.
func BenchmarkDeadlockConvoy(b *testing.B) {
	tb := newTable()
	d := NewDetector(tb)
	const hot, cold, queued = 0, 1, 32
	tb.Request(pg(cold), testOwners.New(1, 1), model.LockWrite, nil)
	writer := testOwners.New(0, 2)
	tb.Request(pg(hot), writer, model.LockWrite, nil)
	tb.Request(pg(cold), writer, model.LockWrite, nil)
	var last Owner
	for i := 0; i < queued; i++ {
		last = testOwners.New(i%2, TxID(i+3))
		tb.Request(pg(hot), last, model.LockWrite, nil)
	}
	benchFindNoCycle(b, d, last)
}

// benchFindNoCycle times FindCycle from start, which must find no
// cycle; the warm-up search sizes the scratch outside the timer.
func benchFindNoCycle(b *testing.B, d *Detector, start Owner) {
	if d.FindCycle(start) != nil {
		b.Fatal("the waits-for graph must contain no cycle")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d.FindCycle(start) != nil {
			b.Fatal("the waits-for graph must contain no cycle")
		}
	}
}
