package lock

import (
	"testing"

	"gemsim/internal/model"
)

// BenchmarkRequestRelease measures the uncontended lock table fast
// path.
func BenchmarkRequestRelease(b *testing.B) {
	tb := newTable()
	o := Owner{Node: 0, Tx: 1}
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
		o := Owner{Node: 0, Tx: TxID(i)}
		for k := int32(0); k < 8; k++ {
			tb.Request(pg(k), o, model.LockRead, nil)
		}
		tb.ReleaseAll(o)
	}
}

// TestUncontendedCycleAllocFree asserts the allocation-free contract
// of the hot lock path: once the record pools are warm, an uncontended
// request/release cycle — and a full commit-time ReleaseAll over a
// multi-page lock set — performs zero heap allocations.
func TestUncontendedCycleAllocFree(t *testing.T) {
	tb := newTable()
	o := Owner{Node: 0, Tx: 1}
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
		ow := Owner{Node: 0, Tx: tx}
		for k := int32(0); k < 8; k++ {
			tb.Request(pg(k), ow, model.LockRead, nil)
		}
		tb.ReleaseAll(ow)
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
// of blocked transactions.
func BenchmarkDeadlockDetection(b *testing.B) {
	tb := newTable()
	d := NewDetector(tb)
	const chain = 32
	for i := 0; i < chain; i++ {
		o := Owner{Node: i % 4, Tx: TxID(i + 1)}
		tb.Request(pg(int32(i)), o, model.LockWrite, nil)
		if i > 0 {
			tb.Request(pg(int32(i-1)), o, model.LockWrite, nil)
		}
	}
	last := Owner{Node: 0, Tx: TxID(chain)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cycle := d.FindCycle(last); cycle != nil {
			b.Fatal("chain must not contain a cycle")
		}
	}
}
