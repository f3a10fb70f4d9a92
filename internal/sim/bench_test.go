package sim

import (
	"testing"
	"time"
)

// BenchmarkProcessHandoff measures the cost of one schedule/park/resume
// cycle — the kernel's fundamental operation.
func BenchmarkProcessHandoff(b *testing.B) {
	env := NewEnv()
	defer env.Stop()
	done := false
	env.Spawn("spinner", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Wait(time.Microsecond)
		}
		done = true
	})
	b.ResetTimer()
	if err := env.RunUntilIdle(); err != nil {
		b.Fatal(err)
	}
	if !done {
		b.Fatal("spinner did not finish")
	}
}

// BenchmarkSpawn measures a process's whole life on a warmed Env:
// spawn, one Wait, finish. Its one allocation per op is the Proc
// record; the coroutine comes from the idle-worker pool.
func BenchmarkSpawn(b *testing.B) {
	env := NewEnv()
	defer env.Stop()
	body := func(p *Proc) { p.Wait(time.Microsecond) }
	env.Spawn("warm", body)
	if err := env.RunUntilIdle(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Spawn("s", body)
		if err := env.RunUntilIdle(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResourceUse measures a contended acquire/wait/release cycle.
func BenchmarkResourceUse(b *testing.B) {
	env := NewEnv()
	defer env.Stop()
	r := NewResource(env, "r", 2)
	const workers = 8
	per := b.N/workers + 1
	for w := 0; w < workers; w++ {
		env.Spawn("w", func(p *Proc) {
			for i := 0; i < per; i++ {
				r.Use(p, time.Microsecond)
			}
		})
	}
	b.ResetTimer()
	if err := env.RunUntilIdle(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEventDispatch measures one schedule/dispatch cycle on the
// callback tier — the Tier-1 analog of BenchmarkProcessHandoff. A
// single self-rescheduling callback keeps exactly one event live, so
// the event record is recycled from the pool on every cycle.
func BenchmarkEventDispatch(b *testing.B) {
	env := NewEnv()
	defer env.Stop()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < b.N {
			env.After(time.Microsecond, tick)
		}
	}
	env.After(time.Microsecond, tick)
	b.ResetTimer()
	if err := env.RunUntilIdle(); err != nil {
		b.Fatal(err)
	}
	if count != b.N {
		b.Fatalf("fired %d of %d", count, b.N)
	}
}

// BenchmarkResourceRequest measures a contended service cycle on the
// callback tier — the Tier-1 analog of BenchmarkResourceUse: same
// station (2 servers), same offered load (8 clients), but each client
// is a callback chain instead of a parked process.
func BenchmarkResourceRequest(b *testing.B) {
	env := NewEnv()
	defer env.Stop()
	r := NewResource(env, "r", 2)
	const workers = 8
	per := b.N/workers + 1
	served := 0
	for w := 0; w < workers; w++ {
		var next func()
		left := per
		next = func() {
			served++
			left--
			if left > 0 {
				r.Request(time.Microsecond, next)
			}
		}
		r.Request(time.Microsecond, next)
	}
	b.ResetTimer()
	if err := env.RunUntilIdle(); err != nil {
		b.Fatal(err)
	}
	if served < b.N {
		b.Fatalf("served %d of %d", served, b.N)
	}
}

// BenchmarkServiceCompletion measures the hot path the refactor moved
// to the callback tier: a client process issues a request to a station
// and parks once; service, queueing, and release bookkeeping all run
// as callbacks, and the process is resumed in the completion slot
// (RequestResume). This is the shape of every device access in the
// node layer.
func BenchmarkServiceCompletion(b *testing.B) {
	env := NewEnv()
	defer env.Stop()
	r := NewResource(env, "r", 1)
	env.Spawn("client", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			r.RequestResume(p.Continuation(), time.Microsecond, nil)
			p.Park()
		}
	})
	b.ResetTimer()
	if err := env.RunUntilIdle(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCalendarHyperscale measures the calendar queue at a
// hyperscale pending-event population: 64k self-rescheduling entities
// with pseudo-randomly spread delays keep 64k events live at all
// times, exercising bucket resizing and window rotation continuously.
// The binary heap paid O(log n) per operation at this depth; the
// calendar stays O(1). Reports events/sec for BENCH_kernel.json.
func BenchmarkCalendarHyperscale(b *testing.B) {
	env := NewEnv()
	defer env.Stop()
	const entities = 65536
	fired := 0
	h := uint32(2463534242)
	next := func() Time {
		h ^= h << 13
		h ^= h >> 17
		h ^= h << 5
		return Time(h % 1000000) // 0-1ms spread
	}
	var tick func()
	tick = func() {
		fired++
		if fired+entities <= b.N {
			env.After(next(), tick)
		}
	}
	for i := 0; i < entities; i++ {
		env.After(next(), tick)
	}
	b.ResetTimer()
	if err := env.RunUntilIdle(); err != nil {
		b.Fatal(err)
	}
	if fired < b.N && fired != entities {
		b.Fatalf("fired %d of %d", fired, b.N)
	}
	b.ReportMetric(float64(fired)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkEventScheduling measures raw calendar insert/dispatch.
func BenchmarkEventScheduling(b *testing.B) {
	env := NewEnv()
	defer env.Stop()
	count := 0
	for i := 0; i < b.N; i++ {
		env.After(Time(i%1000)*time.Microsecond, func() { count++ })
	}
	b.ResetTimer()
	if err := env.RunUntilIdle(); err != nil {
		b.Fatal(err)
	}
	if count != b.N {
		b.Fatalf("fired %d of %d", count, b.N)
	}
}
