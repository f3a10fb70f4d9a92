package sim

import (
	"container/heap"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// refHeap is the legacy binary heap the calendar queue replaced, kept
// as the test oracle: pop order over the strict total order (at, seq)
// must be identical between the two structures.
type refHeap []*event

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return evLess(h[i], h[j]) }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(*event)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// TestCalendarMatchesHeapOrder drives randomized interleaved
// insert/pop schedules through the calendar queue and the legacy
// binary heap and requires identical dispatch order. The schedule mix
// deliberately includes same-timestamp bursts (zero-span buckets),
// near-term events, and far-future outliers that exercise the overflow
// tier and rotation, across enough volume to trigger both grow and
// shrink resizes.
func TestCalendarMatchesHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		var cal calendar
		var ref refHeap
		var seq int64
		var now Time
		push := func() {
			seq++
			var at Time
			switch rng.Intn(5) {
			case 0: // same-instant burst
				at = now
			case 1: // sub-bucket jitter
				at = now + Time(rng.Intn(1000))
			case 2, 3: // typical service times
				at = now + Time(rng.Intn(5_000_000))
			case 4: // far-future outlier (overflow tier)
				at = now + Time(rng.Int63n(int64(10*time.Minute)))
			}
			cal.insert(&event{at: at, seq: seq})
			heap.Push(&ref, &event{at: at, seq: seq})
		}
		pop := func() {
			got := cal.pop(0, false)
			want := heap.Pop(&ref).(*event)
			if got == nil || got.at != want.at || got.seq != want.seq {
				t.Fatalf("trial %d: pop mismatch: calendar %+v, heap (at=%v seq=%d)",
					trial, got, want.at, want.seq)
			}
			now = got.at
		}
		for op := 0; op < 4000; op++ {
			if cal.total() != len(ref) {
				t.Fatalf("trial %d: size mismatch: calendar %d, heap %d", trial, cal.total(), len(ref))
			}
			if len(ref) == 0 || rng.Intn(3) != 0 {
				push()
			} else {
				pop()
			}
		}
		for len(ref) > 0 {
			pop()
		}
		if got := cal.pop(0, false); got != nil {
			t.Fatalf("trial %d: calendar not empty after drain: %+v", trial, got)
		}
	}
}

// TestCalendarBoundedPop checks that bounded pops honor the limit the
// run loop passes: events past the limit stay queued — including
// events parked in the overflow tier — and are delivered once the
// limit moves.
func TestCalendarBoundedPop(t *testing.T) {
	var cal calendar
	cal.insert(&event{at: 5 * time.Millisecond, seq: 1})
	cal.insert(&event{at: 10 * time.Minute, seq: 2}) // overflow tier
	if ev := cal.pop(time.Millisecond, true); ev != nil {
		t.Fatalf("popped %+v before the limit", ev)
	}
	if ev := cal.pop(time.Second, true); ev == nil || ev.seq != 1 {
		t.Fatalf("expected seq 1, got %+v", ev)
	}
	if ev := cal.pop(time.Second, true); ev != nil {
		t.Fatalf("overflow event escaped the limit: %+v", ev)
	}
	if cal.total() != 1 {
		t.Fatalf("overflow event lost: total %d", cal.total())
	}
	if ev := cal.pop(time.Hour, true); ev == nil || ev.seq != 2 {
		t.Fatalf("expected seq 2, got %+v", ev)
	}
}

// TestTimerCancelAfterRotation is the regression test for timeout
// cancellation under the calendar queue: a process arms a far-future
// wake (a timeout) that sits in the overflow tier, and an earlier wake
// supersedes it only after the window has rotated past its original
// bucket geometry. The stale calendar entry still fires internally —
// there is no queue removal — but must find the process at a newer
// generation and be dropped.
func TestTimerCancelAfterRotation(t *testing.T) {
	env := NewEnv()
	defer env.Stop()
	var wakes []Time
	p := env.Spawn("waiter", func(p *Proc) {
		// Far beyond the initial 16ms window: the entry starts in
		// overflow.
		p.UnparkAfter(500 * time.Millisecond)
		p.Park() // the reply at 300ms comes first
		wakes = append(wakes, env.Now())
		p.Park() // the stale timeout must not end this park
		wakes = append(wakes, env.Now())
	})
	// Near-term churn drives the clock across many windows, forcing
	// rotations and resizes while the timeout entry is still pending.
	for i := 0; i < 200; i++ {
		env.After(Time(i)*time.Millisecond, func() {})
	}
	env.After(300*time.Millisecond, func() { p.Unpark() })
	if err := env.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(wakes) != 1 || wakes[0] != 300*time.Millisecond {
		t.Fatalf("wakes %v, want only the reply at 300ms", wakes)
	}
	// The process is still waitable: a fresh wake ends the second park.
	p.UnparkAfter(10 * time.Millisecond)
	if err := env.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(wakes) != 2 || wakes[1] != 2010*time.Millisecond {
		t.Fatalf("wakes %v, want a second wake at 2.01s", wakes)
	}
}

// TestCalendarSteadyFarFutureAllocFree is the regression test for
// resize thrash: a handful of dense near-term events plus a few dozen
// far-future ones parked in overflow, the shape of a debit-credit run.
// Shrinking on the bucket count alone rebuilt the array at its own
// size on almost every pop, allocating a fresh array and scratch slice
// each time. After warm-up a pop/insert cycle must allocate nothing
// and resizes must stay rare.
func TestCalendarSteadyFarFutureAllocFree(t *testing.T) {
	const (
		near = 3  // steady near-term population
		far  = 24 // far-future population, mostly in overflow
	)
	rng := rand.New(rand.NewSource(7))
	var cal calendar
	var seq int64
	var now Time
	push := func(ev *event, at Time) {
		seq++
		ev.at, ev.seq = at, seq
		cal.insert(ev)
	}
	nearDelay := func() Time { return Time(rng.Int63n(int64(2 * time.Millisecond))) }
	farDelay := func() Time { return 30*time.Millisecond + Time(rng.Int63n(int64(30*time.Millisecond))) }
	// A start-up burst grows the array past the minimum, so the
	// steady state runs on a shrinkable array.
	for i := 0; i < 40; i++ {
		push(&event{}, now+nearDelay())
	}
	// gen tags the far-future events, so each is rescheduled far out.
	for i := 0; i < far; i++ {
		push(&event{gen: 1}, now+farDelay())
	}
	cycle := func() {
		ev := cal.pop(0, false)
		now = ev.at
		if ev.gen == 1 {
			push(ev, now+farDelay())
			return
		}
		if cal.total() < near+far {
			push(ev, now+nearDelay())
		}
	}
	for i := 0; i < 200000; i++ {
		cycle()
	}
	if got := cal.total(); got != near+far-1 && got != near+far {
		t.Fatalf("steady state holds %d events, want about %d", got, near+far)
	}
	// Count allocations over the whole window: an occasional rebuild
	// must show, not round down to zero per cycle.
	const cycles = 20000
	base := cal.resizes
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	resizes := cal.resizes - base
	t.Logf("%d resizes, %d allocations over %d cycles", resizes, after.Mallocs-before.Mallocs, cycles)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("%d steady pop/insert cycles allocate %d times, want 0", cycles, n)
	}
	if resizes > 20 {
		t.Errorf("%d resizes over %d steady cycles, want at most 20", resizes, cycles)
	}
}
