// Package stats provides the statistics collectors used by the
// simulator: streaming mean/variance, fixed-resolution histograms with
// percentile queries, ratio counters, and batch-means confidence
// intervals for steady-state simulation output analysis, and an
// equivalence test on replicate means.
package stats

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Series accumulates scalar observations with Welford's streaming
// algorithm and tracks extremes.
type Series struct {
	n        int64
	mean     float64
	m2       float64
	min, max float64
}

// Add records one observation.
func (s *Series) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// AddDuration records a duration observation in seconds.
func (s *Series) AddDuration(d time.Duration) { s.Add(d.Seconds()) }

// Count returns the number of observations.
func (s *Series) Count() int64 { return s.n }

// Mean returns the sample mean (zero if empty).
func (s *Series) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.mean
}

// MeanDuration returns the mean interpreted as seconds.
func (s *Series) MeanDuration() time.Duration {
	return time.Duration(s.Mean() * float64(time.Second))
}

// Variance returns the unbiased sample variance.
func (s *Series) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Series) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Min returns the smallest observation (zero if empty).
func (s *Series) Min() float64 {
	if s.n == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest observation (zero if empty).
func (s *Series) Max() float64 {
	if s.n == 0 {
		return 0
	}
	return s.max
}

// Reset discards all observations.
func (s *Series) Reset() { *s = Series{} }

// Merge folds the observations of o into s (parallel variance merge by
// Chan et al.).
func (s *Series) Merge(o *Series) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *o
		return
	}
	n := s.n + o.n
	delta := o.mean - s.mean
	s.m2 += o.m2 + delta*delta*float64(s.n)*float64(o.n)/float64(n)
	s.mean += delta * float64(o.n) / float64(n)
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	s.n = n
}

// String summarizes the series.
func (s *Series) String() string {
	return fmt.Sprintf("n=%d mean=%.6g sd=%.3g min=%.6g max=%.6g",
		s.n, s.Mean(), s.StdDev(), s.Min(), s.Max())
}

// Histogram collects observations into geometric buckets for percentile
// estimation without storing samples. Bucket i covers
// [lo*growth^i, lo*growth^(i+1)); values below lo land in an underflow
// bucket.
type Histogram struct {
	lo      float64
	growth  float64
	logG    float64
	under   int64
	buckets []int64
	total   int64
}

// NewHistogram creates a histogram whose first bucket starts at lo > 0
// and whose bucket bounds grow by factor growth > 1.
func NewHistogram(lo, growth float64) *Histogram {
	if lo <= 0 || growth <= 1 {
		panic("stats: histogram needs lo > 0 and growth > 1")
	}
	return &Histogram{lo: lo, growth: growth, logG: math.Log(growth)}
}

// NewDurationHistogram returns a histogram suited to response times from
// ~10 microseconds up, with ~5% bucket resolution.
func NewDurationHistogram() *Histogram { return NewHistogram(10e-6, 1.05) }

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.total++
	if x < h.lo {
		h.under++
		return
	}
	i := int(math.Log(x/h.lo) / h.logG)
	if i >= len(h.buckets) {
		grown := make([]int64, i+1)
		copy(grown, h.buckets)
		h.buckets = grown
	}
	h.buckets[i]++
}

// AddDuration records a duration in seconds.
func (h *Histogram) AddDuration(d time.Duration) { h.Add(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.total }

// Quantile returns an upper bound estimate for the q-quantile
// (0 < q <= 1); zero if the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	seen := h.under
	if seen >= rank {
		return h.lo
	}
	for i, c := range h.buckets {
		seen += c
		if seen >= rank {
			return h.lo * math.Pow(h.growth, float64(i+1))
		}
	}
	return h.lo * math.Pow(h.growth, float64(len(h.buckets)))
}

// Percentile returns the same upper-bound estimate as Quantile, but
// returns NaN on an empty histogram so windowed samplers can
// distinguish "no observations" from an estimate of zero.
func (h *Histogram) Percentile(q float64) float64 {
	if h.total == 0 {
		return math.NaN()
	}
	return h.Quantile(q)
}

// QuantileDuration returns Quantile interpreted as seconds.
func (h *Histogram) QuantileDuration(q float64) time.Duration {
	return time.Duration(h.Quantile(q) * float64(time.Second))
}

// Reset discards all observations.
func (h *Histogram) Reset() {
	h.under = 0
	h.total = 0
	h.buckets = h.buckets[:0]
}

// Merge folds o into h; both histograms must share lo and growth.
func (h *Histogram) Merge(o *Histogram) {
	if o.lo != h.lo || o.growth != h.growth {
		panic("stats: merging histograms with different bucketing")
	}
	h.under += o.under
	h.total += o.total
	if len(o.buckets) > len(h.buckets) {
		grown := make([]int64, len(o.buckets))
		copy(grown, h.buckets)
		h.buckets = grown
	}
	for i, c := range o.buckets {
		h.buckets[i] += c
	}
}

// Ratio counts hit/miss style events.
type Ratio struct {
	hits, total int64
}

// Observe records one event that either hit or missed.
func (r *Ratio) Observe(hit bool) {
	r.total++
	if hit {
		r.hits++
	}
}

// Hits returns the number of positive events.
func (r *Ratio) Hits() int64 { return r.hits }

// Total returns the number of events.
func (r *Ratio) Total() int64 { return r.total }

// Value returns hits/total, or zero when empty.
func (r *Ratio) Value() float64 {
	if r.total == 0 {
		return 0
	}
	return float64(r.hits) / float64(r.total)
}

// Reset discards all counts.
func (r *Ratio) Reset() { *r = Ratio{} }

// BatchMeans implements the batch-means method for confidence intervals
// on steady-state means: observations are grouped into fixed-size
// batches and the batch averages are treated as independent samples.
type BatchMeans struct {
	batchSize int64
	cur       float64
	curN      int64
	batches   []float64
}

// NewBatchMeans groups observations into batches of the given size.
func NewBatchMeans(batchSize int64) *BatchMeans {
	if batchSize <= 0 {
		panic("stats: batch size must be positive")
	}
	return &BatchMeans{batchSize: batchSize}
}

// Add records one observation.
func (b *BatchMeans) Add(x float64) {
	b.cur += x
	b.curN++
	if b.curN == b.batchSize {
		b.batches = append(b.batches, b.cur/float64(b.curN))
		b.cur, b.curN = 0, 0
	}
}

// Batches returns the number of completed batches.
func (b *BatchMeans) Batches() int { return len(b.batches) }

// Mean returns the grand mean over completed batches.
func (b *BatchMeans) Mean() float64 {
	if len(b.batches) == 0 {
		return 0
	}
	var sum float64
	for _, v := range b.batches {
		sum += v
	}
	return sum / float64(len(b.batches))
}

// HalfWidth95 returns the 95% confidence half-width using a normal
// approximation over batch means; zero with fewer than two batches.
func (b *BatchMeans) HalfWidth95() float64 { return b.halfWidth(1.96) }

// halfWidth returns q·s/√n over the batch means for the quantile q;
// zero with fewer than two batches.
func (b *BatchMeans) halfWidth(q float64) float64 {
	n := len(b.batches)
	if n < 2 {
		return 0
	}
	mean := b.Mean()
	var ss float64
	for _, v := range b.batches {
		d := v - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(n-1))
	return q * sd / math.Sqrt(float64(n))
}

// ReplicateCI aggregates independently seeded replica measurements of
// the same experiment point into a mean and a 95% confidence
// half-width. Each replica is one batch of the batch-means machinery
// (replicas are independent runs, so batch size 1 is exact). Replicas
// are few, so the half-width uses Student's t(0.975, n-1), not the
// normal 1.96 (4.30 for three replicas); it is zero with fewer than
// two replicas.
func ReplicateCI(values []float64) (mean, halfWidth float64) {
	bm := NewBatchMeans(1)
	for _, v := range values {
		bm.Add(v)
	}
	if len(values) < 2 {
		return bm.Mean(), 0
	}
	return bm.Mean(), bm.halfWidth(studentTQuantile(0.975, float64(len(values)-1)))
}

// Equivalent is a two-one-sided-tests (TOST) equivalence check on
// independent replicate measurements of one experiment point under a
// reference and a changed model: it reports whether the 90% Welch
// confidence interval [lo, hi] of mean(got)-mean(ref) lies inside
// (-margin, +margin), which rejects both "got is lower by margin or
// more" and "got is higher by margin or more" at the 5% level. With
// fewer than two values in either sample the interval is unbounded and
// the check fails; when neither sample varies, the interval is the
// difference of the means.
func Equivalent(ref, got []float64, margin float64) (lo, hi float64, ok bool) {
	if len(ref) < 2 || len(got) < 2 {
		return math.Inf(-1), math.Inf(1), false
	}
	var r, g Series
	for _, v := range ref {
		r.Add(v)
	}
	for _, v := range got {
		g.Add(v)
	}
	diff := g.Mean() - r.Mean()
	vr, vg := r.Variance()/float64(r.Count()), g.Variance()/float64(g.Count())
	if se2 := vr + vg; se2 > 0 {
		// Welch-Satterthwaite degrees of freedom.
		df := se2 * se2 / (vr*vr/float64(r.Count()-1) + vg*vg/float64(g.Count()-1))
		hw := studentTQuantile(0.95, df) * math.Sqrt(se2)
		lo, hi = diff-hw, diff+hw
	} else {
		lo, hi = diff, diff
	}
	return lo, hi, lo > -margin && hi < margin
}

// studentTQuantile returns the p-quantile, p in [0.5, 1), of Student's
// t distribution with df > 0 (not necessarily integral) degrees of
// freedom, by bisection on the distribution function.
func studentTQuantile(p, df float64) float64 {
	lo, hi := 0.0, 1.0
	for studentTCDF(hi, df) < p {
		lo, hi = hi, 2*hi
	}
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if studentTCDF(mid, df) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// studentTCDF is P(T <= t) for t >= 0 under Student's t distribution
// with df degrees of freedom.
func studentTCDF(t, df float64) float64 {
	return 1 - 0.5*regIncBeta(df/2, 0.5, df/(df+t*t))
}

// regIncBeta is the regularized incomplete beta function I_x(a, b),
// from its continued fraction (modified Lentz), which converges fast
// for x < (a+1)/(a+b+2); above that it uses I_x(a,b) = 1-I_{1-x}(b,a).
func regIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	case x > (a+1)/(a+b+2):
		return 1 - regIncBeta(b, a, 1-x)
	}
	lga, _ := math.Lgamma(a)
	lgb, _ := math.Lgamma(b)
	lgab, _ := math.Lgamma(a + b)
	front := math.Exp(lgab - lga - lgb + a*math.Log(x) + b*math.Log1p(-x))
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	f := d
	for m := 1.0; m <= 300; m++ {
		// Even and odd terms of the continued fraction.
		num := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		f *= d * c
		num = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		step := d * c
		f *= step
		if math.Abs(step-1) < 1e-15 {
			break
		}
	}
	return front * f / a
}

// Quantiles computes exact quantiles of a sample slice (used by tests
// and offline analysis). The input is not modified.
func Quantiles(sample []float64, qs ...float64) []float64 {
	if len(sample) == 0 {
		return make([]float64, len(qs))
	}
	sorted := make([]float64, len(sample))
	copy(sorted, sample)
	sort.Float64s(sorted)
	out := make([]float64, len(qs))
	for i, q := range qs {
		rank := int(math.Ceil(q*float64(len(sorted)))) - 1
		if rank < 0 {
			rank = 0
		}
		if rank >= len(sorted) {
			rank = len(sorted) - 1
		}
		out[i] = sorted[rank]
	}
	return out
}
