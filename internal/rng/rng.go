// Package rng provides the seeded random samplers the trace synthesizers
// and GAN training loops share: Zipf-ranked categorical draws,
// heavy-tailed and exponential size distributions, weighted categorical
// sampling, and decorrelated child seeds (Derive). Everything takes an
// explicit *rand.Rand so experiments are reproducible end to end.
package rng

import (
	"math"
	"math/rand"
	"sort"
)

// New returns a rand.Rand seeded with seed.
func New(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// LogNormal returns a sample from a log-normal distribution with the given
// parameters of the underlying normal (mu, sigma).
func LogNormal(r *rand.Rand, mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Exponential returns a sample from Exp(rate).
func Exponential(r *rand.Rand, rate float64) float64 {
	return r.ExpFloat64() / rate
}

// Zipf draws ranks in [0, n) with probability proportional to
// 1/(rank+1)^s. It precomputes the CDF once; use NewZipf for repeated
// draws.
type Zipf struct {
	cdf []float64
}

// NewZipf builds a Zipf sampler over n ranks with exponent s (> 0).
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("rng: Zipf needs n > 0")
	}
	cdf := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return &Zipf{cdf: cdf}
}

// Draw returns a rank in [0, n).
func (z *Zipf) Draw(r *rand.Rand) int {
	u := r.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}

// Categorical draws indices with the given (unnormalized) weights.
type Categorical struct {
	cdf []float64
}

// NewCategorical builds a sampler over len(weights) outcomes. Weights must
// be non-negative with a positive sum.
func NewCategorical(weights []float64) *Categorical {
	if len(weights) == 0 {
		panic("rng: Categorical needs weights")
	}
	cdf := make([]float64, len(weights))
	var total float64
	for i, w := range weights {
		if w < 0 {
			panic("rng: negative categorical weight")
		}
		total += w
		cdf[i] = total
	}
	if total <= 0 {
		panic("rng: categorical weights sum to zero")
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return &Categorical{cdf: cdf}
}

// Draw returns an outcome index.
func (c *Categorical) Draw(r *rand.Rand) int {
	u := r.Float64()
	return sort.SearchFloat64s(c.cdf, u)
}

// Derive returns a decorrelated child seed for the given stream index of a
// base seed, using two rounds of splitmix64 finalization. Stream i's seed
// depends only on (seed, i) — never on how many streams exist or which
// worker consumes it — which is what lets parallel training give each
// worker (or each sample) its own reproducible noise source while the
// serial run draws the identical values.
func Derive(seed, stream int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(uint64(stream)+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	z = (z + 0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 29)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 32))
}
