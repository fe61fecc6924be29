// Package xrand provides a small, deterministic, splittable pseudo-random
// number generator used throughout the simulator.
//
// The standard library's math/rand is avoided in library code for two
// reasons: its global source is shared mutable state, and its stream for a
// given seed is not guaranteed stable across Go releases. Experiments in
// this repository must be exactly reproducible from a seed, so we implement
// xoshiro256** (Blackman & Vigna, 2018) together with SplitMix64 for seeding
// and stream splitting.
//
// A Rand is NOT safe for concurrent use; give each goroutine its own stream
// via Split.
package xrand

import "math/bits"

// Rand is a xoshiro256** generator. The zero value is invalid; use New.
type Rand struct {
	s [4]uint64
}

// splitMix64 advances the SplitMix64 state and returns the next output.
// It is used to expand a 64-bit seed into the 256-bit xoshiro state and to
// derive independent child streams.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from the given 64-bit seed. Distinct seeds
// yield decorrelated streams; the same seed always yields the same stream.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	// xoshiro must not start from the all-zero state. SplitMix64 cannot
	// produce four consecutive zeros, but guard anyway for clarity.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Uint64 returns the next 64 bits of the stream.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9

	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)

	return result
}

// Split returns a new generator whose stream is statistically independent of
// the receiver's future output. It consumes one value from the receiver.
func (r *Rand) Split() *Rand {
	// Re-key through SplitMix64 so the child state is not a simple
	// function of a single xoshiro output.
	seed := r.Uint64()
	return New(seed)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's multiply-shift
// rejection method. It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n called with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability 1/2.
func (r *Rand) Bool() bool {
	return r.Uint64()&1 == 1
}

// Prob returns true with probability p (clamped to [0, 1]).
func (r *Rand) Prob(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Hash deterministically mixes a seed and three words into one uniform
// 64-bit value. It is the counter-based complement to the stream generator
// above: where a Rand carries mutable state and therefore a draw order,
// Hash(seed, a, b, c) is a pure function — the same tuple yields the same
// value no matter which goroutine evaluates it or in what order. Fault
// injection keys it on (seed, round, src, dst) so per-delivery randomness
// survives any engine parallelisation unchanged.
//
// Each word is folded in with a SplitMix64 finalisation round; the golden
// ratio offsets keep an all-zero tuple from fixing the state at zero.
func Hash(seed, a, b, c uint64) uint64 {
	x := seed + 0x9e3779b97f4a7c15
	x = hashMix(x ^ a)
	x = hashMix((x + 0x9e3779b97f4a7c15) ^ b)
	x = hashMix((x + 0x9e3779b97f4a7c15) ^ c)
	return x
}

// HashFloat64 maps Hash's output to a uniform float64 in [0, 1) with the
// same 53-bit construction as Rand.Float64.
func HashFloat64(seed, a, b, c uint64) float64 {
	return float64(Hash(seed, a, b, c)>>11) / (1 << 53)
}

// hashMix is the SplitMix64 output finalisation (Stafford variant 13): a
// bijective avalanche over 64 bits.
func hashMix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Perm returns a random permutation of [0, n) as a slice.
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap, with the
// Fisher-Yates algorithm.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Sample returns k distinct elements chosen uniformly from xs, in random
// order, without modifying xs. It panics if k > len(xs) or k < 0.
func Sample[T any](r *Rand, xs []T, k int) []T {
	if k < 0 || k > len(xs) {
		panic("xrand: Sample size out of range")
	}
	// Partial Fisher-Yates over a copy of the index space.
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	out := make([]T, k)
	for i := 0; i < k; i++ {
		j := i + r.Intn(len(idx)-i)
		idx[i], idx[j] = idx[j], idx[i]
		out[i] = xs[idx[i]]
	}
	return out
}
