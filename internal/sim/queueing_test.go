package sim

// Validation of the simulation kernel against closed-form queueing
// theory: an M/M/1 and an M/M/c station driven by the kernel must
// reproduce the analytic mean waiting times. This is the classic
// correctness check for a discrete event simulator's queueing and
// clock machinery.

import (
	"math"
	"testing"
	"time"

	"gemsim/internal/attrib"
	"gemsim/internal/rng"
)

// driveStation runs Poisson arrivals with exponential service through a
// c-server station and returns the measured mean wait in queue (Wq)
// plus the raw accounting counters for the operational-law checks.
func driveStation(t *testing.T, servers int, lambda, mu float64, jobs int) (float64, attrib.StationCounters) {
	t.Helper()
	env := NewEnv()
	defer env.Stop()
	r := NewResource(env, "station", servers)
	split := rng.NewSplitter(42)
	arr := split.Stream("arrivals")
	svc := split.Stream("service")

	env.Spawn("source", func(p *Proc) {
		for i := 0; i < jobs; i++ {
			p.Wait(time.Duration(arr.Exp(1/lambda) * float64(time.Second)))
			d := time.Duration(svc.Exp(1/mu) * float64(time.Second))
			env.Spawn("job", func(q *Proc) {
				r.Use(q, d)
			})
		}
	})
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	return r.MeanWait().Seconds(), r.Counters()
}

func TestMM1MeanWait(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical validation")
	}
	// M/M/1: Wq = rho / (mu - lambda), rho = lambda/mu.
	const lambda, mu = 50.0, 100.0
	want := (lambda / mu) / (mu - lambda) // 0.01 s
	got, _ := driveStation(t, 1, lambda, mu, 200000)
	t.Logf("M/M/1 Wq: measured %.5fs, analytic %.5fs", got, want)
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("M/M/1 mean wait %.5fs, analytic %.5fs (>5%% off)", got, want)
	}
}

// driveStationFn is driveStation on the callback tier: the same
// Poisson arrivals and exponential service, but the source is a
// self-rescheduling kernel callback and every job is a Resource.Request
// chain — no process is ever spawned. Validates that the Tier-1 queue
// discipline reproduces the same queueing behaviour as parked
// processes.
func driveStationFn(t *testing.T, servers int, lambda, mu float64, jobs int) (float64, attrib.StationCounters) {
	t.Helper()
	env := NewEnv()
	defer env.Stop()
	r := NewResource(env, "station", servers)
	split := rng.NewSplitter(42)
	arr := split.Stream("arrivals")
	svc := split.Stream("service")

	left := jobs
	var next func()
	next = func() {
		r.Request(time.Duration(svc.Exp(1/mu)*float64(time.Second)), nil)
		left--
		if left > 0 {
			env.After(time.Duration(arr.Exp(1/lambda)*float64(time.Second)), next)
		}
	}
	env.After(time.Duration(arr.Exp(1/lambda)*float64(time.Second)), next)
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	return r.MeanWait().Seconds(), r.Counters()
}

func TestMM1MeanWaitCallbackTier(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical validation")
	}
	const lambda, mu = 50.0, 100.0
	want := (lambda / mu) / (mu - lambda)
	got, _ := driveStationFn(t, 1, lambda, mu, 200000)
	t.Logf("M/M/1 (callback tier) Wq: measured %.5fs, analytic %.5fs", got, want)
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("M/M/1 callback-tier mean wait %.5fs, analytic %.5fs (>5%% off)", got, want)
	}
}

func TestMMcMeanWaitCallbackTier(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical validation")
	}
	const c = 4
	const lambda, mu = 280.0, 100.0
	a := lambda / mu
	want := erlangC(c, a) / (c*mu - lambda)
	got, _ := driveStationFn(t, c, lambda, mu, 300000)
	t.Logf("M/M/%d (callback tier) Wq: measured %.6fs, analytic %.6fs", c, got, want)
	if math.Abs(got-want)/want > 0.07 {
		t.Fatalf("M/M/%d callback-tier mean wait %.6fs, analytic %.6fs (>7%% off)", c, got, want)
	}
}

// erlangC returns the probability that an arrival must queue in an
// M/M/c system.
func erlangC(c int, a float64) float64 {
	// a = lambda/mu (offered load in Erlangs).
	sum := 0.0
	term := 1.0
	for k := 0; k < c; k++ {
		if k > 0 {
			term *= a / float64(k)
		}
		sum += term
	}
	top := term * a / float64(c) // a^c / c!
	top = top / (1 - a/float64(c))
	return top / (sum + top)
}

func TestMMcMeanWait(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical validation")
	}
	// M/M/4 at 70% utilization.
	const c = 4
	const lambda, mu = 280.0, 100.0
	a := lambda / mu
	rho := a / c
	want := erlangC(c, a) / (c*mu - lambda)
	_ = rho
	got, _ := driveStation(t, c, lambda, mu, 300000)
	t.Logf("M/M/%d Wq: measured %.6fs, analytic %.6fs", c, got, want)
	if math.Abs(got-want)/want > 0.07 {
		t.Fatalf("M/M/%d mean wait %.6fs, analytic %.6fs (>7%% off)", c, got, want)
	}
}

func TestMD1MeanWait(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical validation")
	}
	// M/D/1 (deterministic service, our disk model): by
	// Pollaczek-Khinchine, Wq = rho/(2(1-rho)) * s.
	const lambda = 40.0
	s := 15 * time.Millisecond // disk service time
	rho := lambda * s.Seconds()
	want := rho / (2 * (1 - rho)) * s.Seconds()

	env := NewEnv()
	defer env.Stop()
	r := NewResource(env, "disk", 1)
	arr := rng.New(7)
	env.Spawn("source", func(p *Proc) {
		for i := 0; i < 200000; i++ {
			p.Wait(time.Duration(arr.Exp(1/lambda) * float64(time.Second)))
			env.Spawn("job", func(q *Proc) { r.Use(q, s) })
		}
	})
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	got := r.MeanWait().Seconds()
	t.Logf("M/D/1 Wq: measured %.6fs, analytic %.6fs", got, want)
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("M/D/1 mean wait %.6fs, analytic %.6fs (>5%% off)", got, want)
	}
}

func TestUtilizationMatchesOfferedLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical validation")
	}
	const lambda, mu = 120.0, 200.0
	env := NewEnv()
	defer env.Stop()
	r := NewResource(env, "s", 1)
	split := rng.NewSplitter(9)
	arr, svc := split.Stream("a"), split.Stream("s")
	env.Spawn("source", func(p *Proc) {
		for i := 0; i < 100000; i++ {
			p.Wait(time.Duration(arr.Exp(1/lambda) * float64(time.Second)))
			d := time.Duration(svc.Exp(1/mu) * float64(time.Second))
			env.Spawn("job", func(q *Proc) { r.Use(q, d) })
		}
	})
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	want := lambda / mu
	if got := r.Utilization(); math.Abs(got-want) > 0.02 {
		t.Fatalf("utilization %.4f, want ~%.2f", got, want)
	}
}

// TestOperationalLawsMM1 checks the attribution engine's self-
// validation on the M/M/1 workload: the Little's-law residual on the
// waiting line (Lq vs lambda*Wq) and the utilization-law residual
// (busy time vs summed service demand) must both be tiny — they
// compare two accountings of the same integral, so unlike the
// analytic Wq checks they are not statistical.
func TestOperationalLawsMM1(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical validation")
	}
	const lambda, mu = 50.0, 100.0
	_, c := driveStation(t, 1, lambda, mu, 200000)
	l := attrib.Derive(c)
	t.Logf("M/M/1 laws: util %.4f, Lq %.4f, little %.5f, utilresid %.5f",
		l.Utilization, l.MeanQueue, l.LittleResid, l.UtilResid)
	if warns := l.Check(attrib.DefaultTolerance); len(warns) > 0 {
		t.Fatalf("law warnings on M/M/1: %v", warns)
	}
	if !l.SvcTracked {
		t.Fatal("M/M/1 station should track per-cycle service demand")
	}
	if l.LittleResid > 0.01 {
		t.Fatalf("Little's-law residual %.4f > 1%%", l.LittleResid)
	}
	if l.UtilResid > 0.01 {
		t.Fatalf("utilization-law residual %.4f > 1%%", l.UtilResid)
	}
}

// TestOperationalLawsMMc is the same check on the M/M/4 workload
// driven entirely on the callback tier, covering the Tier-1 Request
// path's accounting.
func TestOperationalLawsMMc(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical validation")
	}
	const c = 4
	const lambda, mu = 280.0, 100.0
	_, cnt := driveStationFn(t, c, lambda, mu, 300000)
	l := attrib.Derive(cnt)
	t.Logf("M/M/%d laws: util %.4f, Lq %.4f, little %.5f, utilresid %.5f",
		c, l.Utilization, l.MeanQueue, l.LittleResid, l.UtilResid)
	if warns := l.Check(attrib.DefaultTolerance); len(warns) > 0 {
		t.Fatalf("law warnings on M/M/%d: %v", c, warns)
	}
	if !l.SvcTracked {
		t.Fatalf("M/M/%d station should track per-cycle service demand", c)
	}
	if l.LittleResid > 0.01 {
		t.Fatalf("Little's-law residual %.4f > 1%%", l.LittleResid)
	}
	if l.UtilResid > 0.01 {
		t.Fatalf("utilization-law residual %.4f > 1%%", l.UtilResid)
	}
}
