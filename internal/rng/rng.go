// Package rng provides deterministic, independently seeded random streams.
//
// Every stochastic component of the simulator (mobility, query workloads,
// sensor parameters, phenomena) draws from its own named stream so that
// (a) experiments are exactly reproducible given a master seed, and
// (b) changing how one component consumes randomness does not perturb the
// draws seen by another component. This is the standard discipline for
// simulation studies; it makes the benchmark harness print identical rows
// on every run.
package rng

import (
	"hash/fnv"
	"math/rand"
)

// Stream is a deterministic pseudo-random stream. It wraps math/rand with a
// seed derived from a master seed and a stream name.
type Stream struct {
	r *rand.Rand
}

// New derives a stream from a master seed and a name. The same
// (seed, name) pair always yields the same sequence.
func New(seed int64, name string) *Stream {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	mixed := splitmix64(uint64(seed) ^ h.Sum64())
	return &Stream{r: rand.New(rand.NewSource(int64(mixed)))} //nolint:gosec // deterministic simulation
}

// splitmix64 is the SplitMix64 finalizer; it decorrelates nearby seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Derive creates a sub-stream with an additional name component. Streams
// derived with distinct names are statistically independent.
func (s *Stream) Derive(name string) *Stream {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return &Stream{r: rand.New(rand.NewSource(int64(splitmix64(s.r.Uint64() ^ h.Sum64()))))} //nolint:gosec
}

// Float64 returns a uniform value in [0,1).
func (s *Stream) Float64() float64 { return s.r.Float64() }

// Uniform returns a uniform value in [lo,hi).
func (s *Stream) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.r.Float64()
}

// Intn returns a uniform int in [0,n). n must be > 0.
func (s *Stream) Intn(n int) int { return s.r.Intn(n) }

// IntBetween returns a uniform int in [lo,hi] inclusive.
func (s *Stream) IntBetween(lo, hi int) int {
	if hi < lo {
		lo, hi = hi, lo
	}
	return lo + s.r.Intn(hi-lo+1)
}

// Norm returns a normally distributed value with the given mean and stddev.
func (s *Stream) Norm(mean, stddev float64) float64 {
	return mean + stddev*s.r.NormFloat64()
}

// Exp returns an exponentially distributed value with the given rate.
func (s *Stream) Exp(rate float64) float64 {
	return s.r.ExpFloat64() / rate
}

// Bool returns true with probability p.
func (s *Stream) Bool(p float64) bool { return s.r.Float64() < p }

// Perm returns a random permutation of [0,n).
func (s *Stream) Perm(n int) []int { return s.r.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements via swap.
func (s *Stream) Shuffle(n int, swap func(i, j int)) { s.r.Shuffle(n, swap) }
