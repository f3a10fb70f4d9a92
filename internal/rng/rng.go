// Package rng provides the deterministic random number streams used by
// the simulator. Every stochastic model component draws from its own
// named stream split off a master seed, so adding a component never
// perturbs the draws of another and runs are exactly reproducible.
package rng

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
)

// Source is a single deterministic random stream.
type Source struct {
	r *rand.Rand
}

// New returns a stream seeded with the given seed.
func New(seed int64) *Source {
	return &Source{r: rand.New(rand.NewSource(seed))}
}

// Split derives an independent, reproducible child stream identified by
// name. The same parent seed and name always yield the same stream.
func (s *Source) Split(name string) *Source {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	mix := int64(h.Sum64()) //nolint:gosec // deliberate wraparound mixing
	return New(mix ^ s.r.Int63())
}

// Splitter derives independent child streams by name from one master
// seed without consuming draws from a shared parent (order-independent).
type Splitter struct {
	seed int64
}

// NewSplitter returns a splitter for the master seed.
func NewSplitter(seed int64) *Splitter { return &Splitter{seed: seed} }

// Stream returns the stream for name; the same (seed, name) pair always
// yields an identical stream, regardless of call order.
func (sp *Splitter) Stream(name string) *Source {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return New(sp.seed ^ int64(h.Sum64())) //nolint:gosec // wraparound fine
}

// DeriveSeed maps a base seed and a run key to a stable per-run seed
// (FNV-1a over the base seed's bytes followed by the key). The result
// depends only on (base, key) — never on execution order — so a sweep
// of runs produces identical results whether the runs execute
// sequentially or on any number of workers. The returned seed is always
// positive (the simulator treats seed 0 as "use the default").
func DeriveSeed(base int64, key string) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(base)) //nolint:gosec // bit pattern only
	_, _ = h.Write(b[:])
	_, _ = h.Write([]byte(key))
	s := int64(h.Sum64() & (1<<63 - 1)) //nolint:gosec // masked to int63
	if s == 0 {
		s = 1
	}
	return s
}

// Float64 returns a uniform draw in [0, 1).
func (s *Source) Float64() float64 { return s.r.Float64() }

// Intn returns a uniform draw in [0, n).
func (s *Source) Intn(n int) int { return s.r.Intn(n) }

// Int63n returns a uniform draw in [0, n).
func (s *Source) Int63n(n int64) int64 { return s.r.Int63n(n) }

// Exp returns an exponentially distributed draw with the given mean.
func (s *Source) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return s.r.ExpFloat64() * mean
}

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.r.Perm(n) }

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool { return s.r.Float64() < p }

// Discrete samples an index proportionally to the given non-negative
// weights. It panics if all weights are zero or the slice is empty.
func (s *Source) Discrete(weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		panic("rng: discrete distribution needs positive total weight")
	}
	x := s.r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Zipf draws from a Zipf-like distribution over [0, n) with skew theta
// (theta = 0 is uniform; larger is more skewed). It uses the standard
// inverse-CDF approximation of Knuth/Gray for synthetic non-uniform
// database reference strings.
type Zipf struct {
	n     int64
	theta float64
	alpha float64
	zetan float64
	eta   float64
	src   *Source
}

// NewZipf prepares a Zipf sampler over [0, n).
func NewZipf(src *Source, n int64, theta float64) *Zipf {
	if n <= 0 {
		panic("rng: zipf needs n > 0")
	}
	z := &Zipf{n: n, theta: theta, src: src}
	z.zetan = zeta(n, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - zeta(2, theta)/z.zetan)
	return z
}

func zeta(n int64, theta float64) float64 {
	var sum float64
	for i := int64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next draws the next value in [0, n); smaller values are hotter.
func (z *Zipf) Next() int64 { return z.Draw(z.src) }

// N returns the size of the sampled range.
func (z *Zipf) N() int64 { return z.n }

// Mass returns the analytic probability of rank r under the sampler's
// distribution (rank 0 is the hottest). It is the reference for
// goodness-of-fit tests of the inverse-CDF approximation.
func (z *Zipf) Mass(r int64) float64 {
	if r < 0 || r >= z.n {
		return 0
	}
	if z.theta == 0 {
		return 1 / float64(z.n)
	}
	return 1 / (math.Pow(float64(r+1), z.theta) * z.zetan)
}

// Draw draws from the prepared distribution using the given stream
// instead of the one bound at construction. This lets one precomputed
// sampler (the zeta sums are O(n) to build) serve call sites that carry
// their own source, such as the workload generator.
func (z *Zipf) Draw(src *Source) int64 {
	if z.theta == 0 {
		return src.Int63n(z.n)
	}
	u := src.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	v := int64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v < 0 {
		v = 0
	}
	if v >= z.n {
		v = z.n - 1
	}
	return v
}
