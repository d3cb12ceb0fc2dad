// Package rng provides deterministic, splittable random number streams.
//
// The simulator may step nodes from several workers; determinism must
// therefore not depend on scheduling. Each node draws from its own stream,
// derived from a run seed and the node ID via SplitMix64 mixing, so a run is
// reproducible from (seed, topology) alone.
package rng

import "math/rand"

// splitmix64 advances the state and returns the next output of the
// SplitMix64 generator (Steele, Lea, Flood 2014). It is used both to derive
// per-stream seeds and as the stream generator itself.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix combines two 64-bit values into a well-distributed seed.
func Mix(a, b uint64) uint64 {
	s := a
	_ = splitmix64(&s)
	s ^= b * 0xff51afd7ed558ccd
	return splitmix64(&s)
}

// source implements rand.Source64 over SplitMix64.
type source struct {
	state uint64
}

// Seed implements rand.Source.
func (s *source) Seed(seed int64) { s.state = uint64(seed) }

// Uint64 implements rand.Source64.
func (s *source) Uint64() uint64 { return splitmix64(&s.state) }

// Int63 implements rand.Source.
func (s *source) Int63() int64 { return int64(s.Uint64() >> 1) }

// New returns a deterministic generator seeded with the given value.
// Reseeding it in place with Seed(int64(s)) restarts it exactly as New(s)
// would, without allocating, so a caller that needs a fresh stream per
// step can keep one generator.
func New(seed uint64) *rand.Rand {
	return rand.New(&source{state: seed})
}

// Stream returns the generator for stream id under the given run seed.
// Distinct (seed, id) pairs yield statistically independent streams.
func Stream(seed uint64, id int) *rand.Rand {
	return New(Mix(seed, uint64(id)+0x5851f42d4c957f2d))
}

// Streams returns the generators for stream ids 0..n-1 under seed —
// element i is identical in behavior to Stream(seed, i) — backed by flat
// arenas instead of 2n separate allocations, for engines that build one
// generator per node at crowd scale.
func Streams(seed uint64, n int) []*rand.Rand {
	srcs := make([]source, n)
	rands := make([]rand.Rand, n)
	out := make([]*rand.Rand, n)
	for i := range srcs {
		srcs[i].state = Mix(seed, uint64(i)+0x5851f42d4c957f2d)
		rands[i] = *rand.New(&srcs[i])
		out[i] = &rands[i]
	}
	return out
}
