package stats

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestSeriesBasics(t *testing.T) {
	var s Series
	for _, v := range []float64{1, 2, 3, 4} {
		s.Add(v)
	}
	if s.Count() != 4 {
		t.Fatalf("count %d", s.Count())
	}
	if got := s.Mean(); got != 2.5 {
		t.Fatalf("mean %v", got)
	}
	if got := s.Variance(); math.Abs(got-5.0/3.0) > 1e-12 {
		t.Fatalf("variance %v", got)
	}
	if s.Min() != 1 || s.Max() != 4 {
		t.Fatalf("min/max %v %v", s.Min(), s.Max())
	}
}

func TestSeriesEmpty(t *testing.T) {
	var s Series
	if s.Mean() != 0 || s.Variance() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty series should report zeros")
	}
}

func TestSeriesDuration(t *testing.T) {
	var s Series
	s.AddDuration(10 * time.Millisecond)
	s.AddDuration(30 * time.Millisecond)
	if got := s.MeanDuration(); got < 20*time.Millisecond-time.Microsecond || got > 20*time.Millisecond+time.Microsecond {
		t.Fatalf("mean duration %v", got)
	}
}

func TestSeriesMergeMatchesSequential(t *testing.T) {
	err := quick.Check(func(a, b []float64) bool {
		var whole, left, right Series
		for _, v := range a {
			sanitize(&v)
			whole.Add(v)
			left.Add(v)
		}
		for _, v := range b {
			sanitize(&v)
			whole.Add(v)
			right.Add(v)
		}
		left.Merge(&right)
		if whole.Count() != left.Count() {
			return false
		}
		if whole.Count() == 0 {
			return true
		}
		return closeEnough(whole.Mean(), left.Mean()) &&
			closeEnough(whole.Variance(), left.Variance()) &&
			whole.Min() == left.Min() && whole.Max() == left.Max()
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func sanitize(v *float64) {
	if math.IsNaN(*v) || math.IsInf(*v, 0) {
		*v = 0
	}
	// Keep magnitudes bounded so float comparison tolerances hold.
	*v = math.Mod(*v, 1e6)
}

func closeEnough(a, b float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= 1e-9*math.Max(scale, 1)
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram(0.001, 1.1)
	for i := 1; i <= 1000; i++ {
		h.Add(float64(i) * 0.001)
	}
	if h.Count() != 1000 {
		t.Fatalf("count %d", h.Count())
	}
	med := h.Quantile(0.5)
	if med < 0.45 || med > 0.6 {
		t.Fatalf("median estimate %v, want ~0.5", med)
	}
	p99 := h.Quantile(0.99)
	if p99 < 0.9 || p99 > 1.2 {
		t.Fatalf("p99 estimate %v, want ~0.99", p99)
	}
	if q := h.Quantile(0.5); h.Quantile(0.9) < q {
		t.Fatal("quantiles must be monotone")
	}
}

func TestHistogramUnderflow(t *testing.T) {
	h := NewHistogram(1.0, 2.0)
	h.Add(0.5)
	h.Add(0.25)
	if got := h.Quantile(0.9); got != 1.0 {
		t.Fatalf("underflow quantile %v", got)
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewDurationHistogram()
	b := NewDurationHistogram()
	for i := 0; i < 100; i++ {
		a.AddDuration(time.Millisecond)
		b.AddDuration(100 * time.Millisecond)
	}
	a.Merge(b)
	if a.Count() != 200 {
		t.Fatalf("merged count %d", a.Count())
	}
	med := a.QuantileDuration(0.5)
	if med < 500*time.Microsecond || med > 2*time.Millisecond {
		t.Fatalf("median after merge %v", med)
	}
	if p95 := a.QuantileDuration(0.95); p95 < 80*time.Millisecond {
		t.Fatalf("p95 after merge %v", p95)
	}
}

func TestHistogramMergeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bucketing mismatch")
		}
	}()
	NewHistogram(1, 2).Merge(NewHistogram(1, 3))
}

func TestRatio(t *testing.T) {
	var r Ratio
	r.Observe(true)
	r.Observe(true)
	r.Observe(false)
	if got := r.Value(); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Fatalf("ratio %v", got)
	}
	r.Reset()
	if r.Value() != 0 || r.Total() != 0 {
		t.Fatal("reset failed")
	}
}

func TestBatchMeans(t *testing.T) {
	b := NewBatchMeans(10)
	for i := 0; i < 100; i++ {
		b.Add(float64(i % 10))
	}
	if b.Batches() != 10 {
		t.Fatalf("batches %d", b.Batches())
	}
	if got := b.Mean(); got != 4.5 {
		t.Fatalf("grand mean %v", got)
	}
	if hw := b.HalfWidth95(); hw != 0 {
		t.Fatalf("identical batches should give zero half-width, got %v", hw)
	}
}

func TestBatchMeansHalfWidth(t *testing.T) {
	b := NewBatchMeans(1)
	for _, v := range []float64{1, 2, 3, 4, 5, 6, 7, 8} {
		b.Add(v)
	}
	if hw := b.HalfWidth95(); hw <= 0 {
		t.Fatalf("half width %v, want > 0", hw)
	}
}

func TestQuantilesExact(t *testing.T) {
	sample := []float64{5, 1, 4, 2, 3}
	qs := Quantiles(sample, 0.0, 0.5, 1.0)
	if qs[0] != 1 || qs[1] != 3 || qs[2] != 5 {
		t.Fatalf("quantiles %v", qs)
	}
	if got := Quantiles(nil, 0.5); got[0] != 0 {
		t.Fatalf("empty sample quantile %v", got)
	}
}

func TestSeriesAddPropertyMeanBounded(t *testing.T) {
	err := quick.Check(func(vs []float64) bool {
		var s Series
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range vs {
			sanitize(&v)
			s.Add(v)
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		if s.Count() == 0 {
			return true
		}
		return s.Mean() >= lo-1e-9 && s.Mean() <= hi+1e-9 && s.Variance() >= -1e-9
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestMSERCutoffDetectsTransient(t *testing.T) {
	// A decaying initial transient followed by stationary noise.
	series := make([]float64, 1000)
	for i := range series {
		transient := 50 * math.Exp(-float64(i)/40)
		noise := math.Sin(float64(i)*0.7) * 2 // bounded pseudo-noise
		series[i] = 10 + transient + noise
	}
	cut, se := MSERCutoff(series, 5)
	if cut < 50 || cut > 400 {
		t.Fatalf("cutoff %d, want within the transient decay region", cut)
	}
	if se <= 0 {
		t.Fatalf("standard error %v", se)
	}
}

func TestMSERCutoffStationarySeries(t *testing.T) {
	series := make([]float64, 500)
	for i := range series {
		series[i] = 5 + math.Cos(float64(i)*1.3)
	}
	cut, _ := MSERCutoff(series, 5)
	// No transient: the cutoff must stay small.
	if cut > 125 {
		t.Fatalf("cutoff %d for a stationary series", cut)
	}
}

func TestMSERCutoffShortSeries(t *testing.T) {
	if cut, se := MSERCutoff([]float64{1, 2, 3}, 5); cut != 0 || se != 0 {
		t.Fatal("short series must return zero cutoff")
	}
	if cut, _ := MSERCutoff(nil, 0); cut != 0 {
		t.Fatal("empty series must return zero cutoff")
	}
}

// TestStudentTQuantile checks the t quantiles Equivalent uses against
// tabulated values, integral and not, and the normal limit.
func TestStudentTQuantile(t *testing.T) {
	for _, c := range []struct{ p, df, want float64 }{
		{0.95, 1, 6.313752},
		{0.95, 2, 2.919986},
		{0.95, 3, 2.353363},
		{0.95, 10, 1.812461},
		{0.95, 58, 1.671553},
		{0.975, 30, 2.042272},
		{0.95, 1e7, 1.644854},
	} {
		if got := studentTQuantile(c.p, c.df); math.Abs(got-c.want) > 1e-5 {
			t.Errorf("t(%v, df %v) = %.6f, want %.6f", c.p, c.df, got, c.want)
		}
	}
	// Welch degrees of freedom are not integral: df 2.5 lies between
	// its neighbours.
	if q := studentTQuantile(0.95, 2.5); q <= 2.353363 || q >= 2.919986 {
		t.Errorf("t(0.95, df 2.5) = %v, not between df 3 and df 2", q)
	}
}

// TestEquivalent checks the TOST verdict and its Welch interval.
func TestEquivalent(t *testing.T) {
	ref := []float64{10, 12, 14, 11, 13}
	// Equal samples: the interval is centred on 0, half-width
	// t(0.95, 8) * sqrt(2.5/5 + 2.5/5) = 1.859548.
	lo, hi, ok := Equivalent(ref, ref, 2)
	if !ok || math.Abs(hi-1.859548) > 1e-5 || math.Abs(lo+hi) > 1e-12 {
		t.Fatalf("equal samples: [%v, %v] ok=%v", lo, hi, ok)
	}
	if _, _, ok := Equivalent(ref, ref, 1.8); ok {
		t.Fatal("a margin inside the half-width must not show equivalence")
	}
	// A shifted sample moves the interval by the shift.
	shifted := []float64{13, 15, 17, 14, 16}
	lo, hi, ok = Equivalent(ref, shifted, 4)
	if ok || math.Abs(lo-(3-1.859548)) > 1e-5 || math.Abs(hi-(3+1.859548)) > 1e-5 {
		t.Fatalf("shifted by 3: [%v, %v] ok=%v", lo, hi, ok)
	}
	if _, _, ok := Equivalent(ref, shifted, 5); !ok {
		t.Fatal("shift 3 with half-width 1.86 is inside a margin of 5")
	}
	// Constant samples: the interval is the difference of the means.
	if lo, hi, ok := Equivalent([]float64{0, 0}, []float64{1, 1}, 2); !ok || lo != 1 || hi != 1 {
		t.Fatalf("constant samples: [%v, %v] ok=%v", lo, hi, ok)
	}
	if _, _, ok := Equivalent([]float64{1}, ref, 100); ok {
		t.Fatal("one reference value cannot show equivalence")
	}
}

func TestReplicateCI(t *testing.T) {
	mean, hw := ReplicateCI([]float64{10, 12, 14})
	if math.Abs(mean-12) > 1e-9 {
		t.Fatalf("mean %v", mean)
	}
	// sd = 2, hw = 1.96 * 2 / sqrt(3)
	if want := 1.96 * 2 / math.Sqrt(3); math.Abs(hw-want) > 1e-9 {
		t.Fatalf("half width %v, want %v", hw, want)
	}
	// A single replica has no spread estimate.
	mean, hw = ReplicateCI([]float64{7})
	if mean != 7 || hw != 0 {
		t.Fatalf("single replica: mean %v hw %v", mean, hw)
	}
}
