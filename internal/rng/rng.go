// Package rng provides seedable, forkable random streams for the
// simulation. Every stochastic component (CPU noise, network jitter,
// measurement noise) draws from its own forked stream so that adding a new
// consumer never perturbs the draws seen by existing ones, keeping
// experiment traces reproducible.
//
// A stream is a PCG generator seeded from two SplitMix64 words of its
// seed, and a derived stream's seed is a hash of (parent seed, label
// [, epoch]) — nothing else. Deriving is therefore a pure function, and
// AtInto can re-seed an existing stream in place instead of building a
// new one: a per-sample consumer (the Monsoon's ADC noise, 5 000 draws a
// simulated second) pays no allocation for draws identical to At's.
package rng

import (
	"math"
	"math/rand/v2"
)

// RNG is a deterministic random stream.
type RNG struct {
	seed uint64
	pcg  *rand.PCG // src's source, kept so AtInto can re-seed it
	src  *rand.Rand
}

// New returns a stream seeded with seed.
func New(seed uint64) *RNG {
	r := &RNG{pcg: new(rand.PCG)}
	r.src = rand.New(r.pcg)
	r.reseed(seed)
	return r
}

// reseed rewinds r to the start of the stream New(seed) returns. All of a
// stream's state is in its PCG: rand.Rand buffers nothing between draws.
func (r *RNG) reseed(seed uint64) {
	r.seed = seed
	r.pcg.Seed(splitmix(seed), splitmix(seed^0x9e3779b97f4a7c15))
}

// Fork derives an independent stream labelled by name. Forking is stable:
// the same parent seed and label always yield the same child stream.
func (r *RNG) Fork(label string) *RNG {
	return New(splitmix(r.seed ^ fnv1a(label)))
}

// At derives the stream for a (label, epoch) pair. Unlike Fork-then-draw,
// At is stateless: any component can ask for the noise of any epoch in any
// order and always observe the same values. This is how piecewise-constant
// noise processes (CPU utilization, supply ripple) stay consistent no
// matter how often or when they are sampled.
func (r *RNG) At(label string, epoch int64) *RNG {
	return New(r.atSeed(label, epoch))
}

// AtInto is At without the allocation: it re-seeds dst in place so that
// dst's next draws are exactly those of r.At(label, epoch). Whatever dst
// was before is forgotten. dst must not be shared with another goroutine.
func (r *RNG) AtInto(dst *RNG, label string, epoch int64) {
	dst.reseed(r.atSeed(label, epoch))
}

// atSeed hashes label then the eight little-endian bytes of epoch.
func (r *RNG) atSeed(label string, epoch int64) uint64 {
	h := fnv1a(label)
	for i := 0; i < 8; i++ {
		h = (h ^ uint64(byte(epoch>>(8*i)))) * fnvPrime
	}
	return splitmix(r.seed ^ h)
}

// 64-bit FNV-1a, as hash/fnv computes it, without the hasher object.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnv1a(s string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// splitmix is the SplitMix64 finalizer, used to decorrelate nearby seeds.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Uniform returns a uniform draw in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.src.Float64()
}

// Normal returns a Gaussian draw with the given mean and standard
// deviation.
func (r *RNG) Normal(mean, std float64) float64 {
	return mean + std*r.src.NormFloat64()
}

// TruncNormal returns a Gaussian draw clamped to [lo, hi]. It redraws up
// to 8 times before clamping, which keeps the distribution shape near the
// bounds reasonable without risking unbounded loops.
func (r *RNG) TruncNormal(mean, std, lo, hi float64) float64 {
	for i := 0; i < 8; i++ {
		x := r.Normal(mean, std)
		if x >= lo && x <= hi {
			return x
		}
	}
	return math.Min(hi, math.Max(lo, r.Normal(mean, std)))
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.src.Float64() < p }

// Jitter returns x scaled by a uniform factor in [1-frac, 1+frac].
func (r *RNG) Jitter(x, frac float64) float64 {
	return x * r.Uniform(1-frac, 1+frac)
}
