package sim

import (
	"testing"
	"time"
)

// The attribution accounting hooks (queue-length integration at queue
// transitions, the Counters snapshot) sit on the Tier-1 service cycle
// — the paths BenchmarkResourceRequest and BenchmarkServiceCompletion
// guard. Benchmarks on shared CI machines are too noisy to assert
// ns/op bounds, so the zero-cost property is enforced structurally:
// the hooks must not allocate, ever. Allocation-free integer/float
// arithmetic at queue transitions is what keeps BENCH_kernel.json at
// parity with the pre-attribution kernel (see attribution_guard
// there).

func TestAccountingHooksAllocFree(t *testing.T) {
	env := NewEnv()
	defer env.Stop()
	r := NewResource(env, "r", 2)

	// Drive some contended traffic first so the counters are warm and
	// the queues have seen transitions.
	const workers = 8
	for w := 0; w < workers; w++ {
		env.Spawn("w", func(p *Proc) {
			for i := 0; i < 50; i++ {
				r.Use(p, time.Microsecond)
			}
		})
	}
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}

	if n := testing.AllocsPerRun(1000, r.qAccumulate); n != 0 {
		t.Errorf("Resource.qAccumulate allocates %.1f objects per call, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { _ = r.Counters() }); n != 0 {
		t.Errorf("Resource.Counters allocates %.1f objects per call, want 0", n)
	}

	c := r.Counters()
	if c.Requests != workers*50 {
		t.Errorf("Requests = %d, want %d", c.Requests, workers*50)
	}
	if c.QSeconds < 0 || c.BusySeconds <= 0 {
		t.Errorf("implausible integrals: QSeconds=%g BusySeconds=%g", c.QSeconds, c.BusySeconds)
	}
}
