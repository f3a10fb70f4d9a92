package sim

import (
	"container/heap"
	"math/rand"
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

// TestTimerCancelAfterRotation is the regression test for timer
// cancellation under the calendar queue: a timer armed far enough out
// to sit in the overflow tier is cancelled only after the window has
// rotated past its original bucket geometry. The stale calendar entry
// still fires internally — there is no queue removal — but must find
// the timer disarmed and do nothing.
func TestTimerCancelAfterRotation(t *testing.T) {
	env := NewEnv()
	defer env.Stop()
	fired := 0
	tm := env.NewTimer(func() { fired++ })
	// Far beyond the initial 16ms window: the entry starts in overflow.
	tm.Reset(500 * time.Millisecond)
	// Near-term churn drives the clock across many windows, forcing
	// rotations and resizes while the timer entry is still pending.
	for i := 0; i < 200; i++ {
		env.After(Time(i)*time.Millisecond, func() {})
	}
	if err := env.Run(300 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !tm.Armed() {
		t.Fatal("timer lost its arming before Stop")
	}
	if !tm.Stop() {
		t.Fatal("Stop should report the timer was armed")
	}
	if err := env.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Fatalf("cancelled timer fired %d times after rotation", fired)
	}
	// The timer object stays reusable: re-arm and let it fire.
	tm.Reset(10 * time.Millisecond)
	if err := env.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("re-armed timer fired %d times, want 1", fired)
	}
}
