package core

import (
	"strings"
	"testing"
	"time"

	"gemsim/internal/attrib"
	"gemsim/internal/workload"
)

// TestAttributionSharesSumToMeanRT checks the tentpole invariant on a
// default run: the per-resource attributed means (wait plus service,
// including the unattributed "other" residual) sum to exactly the
// measured mean response time, so shares sum to 100%.
func TestAttributionSharesSumToMeanRT(t *testing.T) {
	cfg := DefaultDebitCreditConfig(2)
	cfg.Seed = 11
	cfg.Warmup = 500 * time.Millisecond
	cfg.Measure = 3 * time.Second
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := rep.Metrics.Attribution
	if b == nil || b.N == 0 {
		t.Fatal("attribution is on by default but no breakdown was collected")
	}
	var attributed time.Duration
	var shares float64
	for r := attrib.Res(0); r < attrib.NumRes; r++ {
		w, s := b.Mean(r)
		attributed += w + s
		shares += b.Share(r)
	}
	mean := rep.Metrics.MeanResponseTime
	if diff := (attributed - mean).Abs(); float64(diff) > 0.01*float64(mean) {
		t.Fatalf("attributed mean %v vs measured mean RT %v (off by %v, >1%%)", attributed, mean, diff)
	}
	if shares < 0.99 || shares > 1.01 {
		t.Fatalf("shares sum to %.4f, want 1.0 +- 0.01", shares)
	}
	if rep.Metrics.DominantBottleneck == "" {
		t.Fatal("dominant bottleneck not derived")
	}
	if len(rep.Metrics.StationLaws) == 0 {
		t.Fatal("no station law reports derived")
	}
	for _, w := range rep.Metrics.LawWarnings {
		t.Errorf("law warning on a default run: %s", w)
	}
}

// TestAttributionOffMatchesDefaultTables is the byte-identity guard:
// attribution is pure accounting (no events, no RNG draws), so
// disabling it must not change a single byte of the legacy report.
func TestAttributionOffMatchesDefaultTables(t *testing.T) {
	cfg := DefaultDebitCreditConfig(2)
	cfg.Seed = 11
	cfg.Warmup = 500 * time.Millisecond
	cfg.Measure = 2 * time.Second
	on, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Attribution.Off = true
	off, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if on.String() != off.String() {
		t.Fatal("report differs between attribution on and off")
	}
	if off.Metrics.Attribution != nil || off.Metrics.Phases != nil {
		t.Fatal("attribution off still produced a breakdown")
	}
}

// TestContendedRunAttributesLockMajority is the acceptance test for
// the attribution engine: a closed-loop GEM-coupled run hammering a
// tiny, heavily skewed branch set must attribute the majority of its
// response time to lock waiting — the engine has to name the actual
// bottleneck, not just split time evenly.
func TestContendedRunAttributesLockMajority(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	cfg := DefaultDebitCreditConfig(4)
	cfg.Seed = 7
	cfg.Warmup = time.Second
	cfg.Measure = 8 * time.Second
	// Closed loop: no open-arrival admission queue, so response time
	// is spent inside the system, where attribution can see it.
	cfg.ClosedLoop = &ClosedLoopConfig{TerminalsPerNode: 16, ThinkTime: 5 * time.Millisecond}
	dc := workload.DefaultDebitCreditParams(40) // 40 branches total
	dc.Skew = &workload.Skew{BranchTheta: 0.9}
	cfg.Workload.DebitCredit = &dc
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := rep.Metrics.Attribution
	if b == nil || b.N == 0 {
		t.Fatal("no attribution collected")
	}
	lockShare := b.Share(attrib.ResLock)
	t.Logf("contended run: %d commits, mean RT %v, lock share %.1f%%, dominant %s (%.1f%%)",
		rep.Metrics.Commits, rep.Metrics.MeanResponseTime,
		100*lockShare, rep.Metrics.DominantBottleneck, 100*rep.Metrics.DominantShare)
	if !strings.EqualFold(rep.Metrics.DominantBottleneck, attrib.ResLock.String()) {
		t.Fatalf("dominant bottleneck %q, want lock", rep.Metrics.DominantBottleneck)
	}
	if lockShare <= 0.5 {
		t.Fatalf("lock share %.1f%%, want majority (>50%%)", 100*lockShare)
	}
}
