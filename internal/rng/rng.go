// Package rng provides deterministic pseudo-random number streams for the
// simulator and the randomized algorithms.
//
// The paper's randomized algorithms (Lemma 4.6, Theorems 1.2 and 1.3) assume
// each node has access to private random bits. To make simulations
// reproducible — and to make the parallel and sequential engines produce
// bit-identical transcripts — every node derives its own independent stream
// from a (runSeed, nodeID) pair using SplitMix64. SplitMix64 is a tiny,
// well-mixed generator that is safe to seed with correlated inputs, which is
// exactly the situation here (node IDs are consecutive integers).
package rng

import "math"

// Stream is a deterministic pseudo-random stream (SplitMix64).
// The zero value is a valid stream seeded with 0.
type Stream struct {
	state uint64
}

// New returns a stream seeded with the given seed.
func New(seed uint64) *Stream {
	return &Stream{state: seed}
}

// Init returns, by value, an independent stream for a node derived from a
// run seed. Distinct (seed, node) pairs yield streams that are independent
// for all practical purposes: the derivation runs the parent state through
// two SplitMix64 steps, so even adjacent node IDs map to well-separated
// states. Returning a value (rather than a heap pointer) lets callers embed
// the stream directly in per-node state — the CONGEST simulator seeds one
// stream per node in place, with no per-node heap object.
func Init(seed uint64, node int) Stream {
	s := Stream{state: seed + 0x9e3779b97f4a7c15*(uint64(node)+1)}
	_ = s.Uint64()
	_ = s.Uint64()
	return s
}

// Uint64 returns the next 64 pseudo-random bits.
func (s *Stream) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless method would be overkill here; simple
	// rejection sampling keeps the stream consumption predictable enough
	// and exactly uniform.
	max := uint64(n)
	limit := (math.MaxUint64 / max) * max
	for {
		v := s.Uint64()
		if v < limit {
			return int(v % max)
		}
	}
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (s *Stream) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n with non-positive n")
	}
	max := uint64(n)
	limit := (math.MaxUint64 / max) * max
	for {
		v := s.Uint64()
		if v < limit {
			return int64(v % max)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p (clamped to [0, 1]).
func (s *Stream) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// PermInto fills dst with a pseudo-random permutation of [0, len(dst))
// (a Fisher–Yates shuffle, one Intn per position above 0). It fills a
// caller's buffer so call sites that permute repeatedly (generators, the
// lower-bound stub matcher) reuse one scratch slice instead of allocating
// per call.
func (s *Stream) PermInto(dst []int) {
	for i := range dst {
		dst[i] = i
	}
	for i := len(dst) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		dst[i], dst[j] = dst[j], dst[i]
	}
}
