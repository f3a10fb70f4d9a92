package sim

import (
	"container/heap"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// refHeap is the legacy binary heap the ladder queue's predecessors
// replaced, kept as the test oracle: pop order over the strict total order (at, seq)
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
// insert/pop schedules through the ladder queue and the legacy binary
// heap and requires identical dispatch order. The schedule mix
// deliberately includes same-timestamp bursts (width-1 buckets sorted
// whole), near-term events, and far-future outliers that sit in Top
// and come back through rebuilds, across enough volume to spawn
// rungs.
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
			case 4: // far-future outlier (Top)
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
// events still in Top — and are delivered once the limit moves.
func TestCalendarBoundedPop(t *testing.T) {
	var cal calendar
	cal.insert(&event{at: 5 * time.Millisecond, seq: 1})
	cal.insert(&event{at: 10 * time.Minute, seq: 2})
	if ev := cal.pop(time.Millisecond, true); ev != nil {
		t.Fatalf("popped %+v before the limit", ev)
	}
	if ev := cal.pop(time.Second, true); ev == nil || ev.seq != 1 {
		t.Fatalf("expected seq 1, got %+v", ev)
	}
	if ev := cal.pop(time.Second, true); ev != nil {
		t.Fatalf("far event escaped the limit: %+v", ev)
	}
	if cal.total() != 1 {
		t.Fatalf("far event lost: total %d", cal.total())
	}
	if ev := cal.pop(time.Hour, true); ev == nil || ev.seq != 2 {
		t.Fatalf("expected seq 2, got %+v", ev)
	}
}

// TestTimerCancelAfterRotation is the regression test for timeout
// cancellation under the event calendar: a process arms a far-future
// wake (a timeout) that sits in Top, and an earlier wake supersedes it
// only after the ladder has been rebuilt around it. The stale calendar
// entry still fires internally — there is no queue removal — but must
// find the process at a newer generation and be dropped.
func TestTimerCancelAfterRotation(t *testing.T) {
	env := NewEnv()
	defer env.Stop()
	var wakes []Time
	p := env.Spawn("waiter", func(p *Proc) {
		// Far beyond the near-term churn: the entry waits in Top.
		p.UnparkAfter(500 * time.Millisecond)
		p.Park() // the reply at 300ms comes first
		wakes = append(wakes, env.Now())
		p.Park() // the stale timeout must not end this park
		wakes = append(wakes, env.Now())
	})
	// Near-term churn drives the clock through many ladder rebuilds
	// while the timeout entry is still pending.
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
// rebuild thrash: a handful of dense near-term events plus a few dozen
// far-future ones, the shape of a debit-credit run. The far events keep
// coming back to Top, so the ladder is rebuilt from Top over and over;
// that is cheap only while every rebuild moves few events. After
// warm-up a pop/insert cycle must allocate nothing, and the events
// moved by rebuilds and rung spawns must stay O(1) per cycle.
func TestCalendarSteadyFarFutureAllocFree(t *testing.T) {
	const (
		near = 3  // steady near-term population
		far  = 24 // far-future population
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
	// A start-up burst fills Bottom past its first refill, the way a
	// run's ramp-up does.
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
	moved, rebuilds, spawns := cal.moved, cal.rebuilds, cal.spawns
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	moved = cal.moved - moved
	t.Logf("%d rebuilds, %d rung spawns, %d events moved, %d allocations over %d cycles",
		cal.rebuilds-rebuilds, cal.spawns-spawns, moved, after.Mallocs-before.Mallocs, cycles)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("%d steady pop/insert cycles allocate %d times, want 0", cycles, n)
	}
	// Each cycle inserts one event, and an insert into Top is moved
	// out of it once; a rebuild that moved more than that would be
	// re-sorting events it had already placed.
	if moved > cycles {
		t.Errorf("rebuilds and spawns moved %d events over %d cycles, want at most one per cycle", moved, cycles)
	}
}

// bimodal is the pending-event shape of the hyperscale workload: tens
// of thousands of idle terminals' far-future wake-ups plus a dense band
// of near-term service events, far denser than the gaps between the
// wake-ups. Each popped event is rescheduled in its own band.
type bimodal struct {
	rng    *rand.Rand
	cal    calendar
	seq    int64
	now    Time
	events []event
}

const (
	bimodalFar  = 32768 // far-future wake-ups, delay in [0.5s, 1.5s)
	bimodalNear = 512   // near-term band, delay in [0, 100µs)
)

func newBimodal(seed int64) *bimodal {
	b := &bimodal{rng: rand.New(rand.NewSource(seed)), events: make([]event, bimodalFar+bimodalNear)}
	for i := range b.events {
		ev := &b.events[i]
		if i < bimodalFar {
			ev.gen = 1
		}
		b.push(ev)
	}
	return b
}

// delay draws ev's next delay from its band.
func (b *bimodal) delay(ev *event) Time {
	if ev.gen == 1 {
		return 500*time.Millisecond + Time(b.rng.Int63n(int64(time.Second)))
	}
	return Time(b.rng.Int63n(int64(100 * time.Microsecond)))
}

func (b *bimodal) push(ev *event) {
	b.seq++
	ev.at, ev.seq = b.now+b.delay(ev), b.seq
	b.cal.insert(ev)
}

// cycle pops the next event and reschedules it.
func (b *bimodal) cycle() {
	ev := b.cal.pop(0, false)
	b.now = ev.at
	b.push(ev)
}

// TestCalendarBimodalMatchesHeapOrder runs the hyperscale shape through
// the ladder queue and the reference heap, with bounded pops at a limit
// just past the clock mixed in, and requires identical results: the
// same event from every pop, nil from a bounded pop exactly when the
// earliest event is past the limit, and an unchanged pending count
// after it. A final drain reschedules half the far events it pops, so
// the ladder is rebuilt from a Top of thousands.
func TestCalendarBimodalMatchesHeapOrder(t *testing.T) {
	b := newBimodal(11)
	var ref refHeap
	mirror := func(ev *event) { heap.Push(&ref, &event{at: ev.at, seq: ev.seq}) }
	for i := range b.events {
		mirror(&b.events[i])
	}
	pop := func(op int, limit Time, bounded bool) *event {
		t.Helper()
		got := b.cal.pop(limit, bounded)
		if bounded && ref[0].at > limit {
			if got != nil {
				t.Fatalf("op %d: bounded pop at %v returned %+v, heap minimum at %v", op, limit, got, ref[0].at)
			}
			if b.cal.total() != len(ref) {
				t.Fatalf("op %d: nil bounded pop changed the pending count: %d, heap %d", op, b.cal.total(), len(ref))
			}
			return nil
		}
		want := heap.Pop(&ref).(*event)
		if got == nil || got.at != want.at || got.seq != want.seq {
			t.Fatalf("op %d: pop mismatch: ladder %+v, heap (at=%v seq=%d)", op, got, want.at, want.seq)
		}
		b.now = got.at
		return got
	}
	const ops = 300000
	for op := 0; op < ops; op++ {
		bounded := op%4 == 3
		limit := b.now + Time(b.rng.Int63n(int64(20*time.Microsecond)))
		if ev := pop(op, limit, bounded); ev != nil {
			b.push(ev)
			mirror(ev)
		}
	}
	rebuilds, spawns := b.cal.rebuilds, b.cal.spawns
	for op := ops; len(ref) > 0; op++ {
		if ev := pop(op, 0, false); ev.gen == 1 && b.rng.Intn(2) == 0 {
			b.push(ev)
			mirror(ev)
		}
	}
	if ev := b.cal.pop(0, false); ev != nil || b.cal.total() != 0 {
		t.Fatalf("ladder not empty after drain: %+v, total %d", ev, b.cal.total())
	}
	t.Logf("%d rebuilds and %d rung spawns in the steady phase, %d and %d in the drain",
		rebuilds, spawns, b.cal.rebuilds-rebuilds, b.cal.spawns-spawns)
	if b.cal.rebuilds-rebuilds < 2 || spawns == 0 {
		t.Errorf("schedule did not exercise the ladder: %d drain rebuilds, %d steady spawns", b.cal.rebuilds-rebuilds, spawns)
	}
}

// TestCalendarBimodalAllocFree requires the hyperscale shape's steady
// pop/insert cycle to allocate nothing once the rung arrays and Bottom
// have reached their high-water marks.
func TestCalendarBimodalAllocFree(t *testing.T) {
	b := newBimodal(5)
	for i := 0; i < 300000; i++ {
		b.cycle()
	}
	const cycles = 100000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		b.cycle()
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("%d steady bimodal cycles allocate %d times, want 0", cycles, n)
	}
}

// TestCalendarBottomBecomesRung covers the ladder's escape from a long
// sorted Bottom: a small Top goes straight to Bottom, and a flood of
// events earlier than its last one lands there by sorted insert until
// Bottom is turned into a rung. Pop order must still be sorted.
func TestCalendarBottomBecomesRung(t *testing.T) {
	var cal calendar
	var ref refHeap
	var seq int64
	push := func(at Time) {
		seq++
		cal.insert(&event{at: at, seq: seq})
		heap.Push(&ref, &event{at: at, seq: seq})
	}
	push(0)
	push(time.Second)
	if ev := cal.pop(0, false); ev == nil || ev.seq != 1 {
		t.Fatalf("first pop %+v, want seq 1", ev)
	}
	heap.Pop(&ref)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		push(Time(rng.Int63n(int64(time.Second))))
	}
	if cal.spawns == 0 {
		t.Fatalf("1000 sorted inserts into Bottom spawned no rung (Bottom holds %d)", len(cal.bottom))
	}
	for len(ref) > 0 {
		got, want := cal.pop(0, false), heap.Pop(&ref).(*event)
		if got == nil || got.at != want.at || got.seq != want.seq {
			t.Fatalf("pop mismatch: ladder %+v, heap (at=%v seq=%d)", got, want.at, want.seq)
		}
	}
}
