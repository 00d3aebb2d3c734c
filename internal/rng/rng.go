// Package rng provides a small, fast, deterministic and splittable
// pseudo-random number generator used throughout the Stellaris codebase.
//
// Reproducibility is load-bearing here: every experiment in the paper is
// averaged over fixed seeds, and the discrete-event simulator must replay
// identical schedules for identical seeds. math/rand's global state is
// unsuitable because independent components (actors, learners, latency
// models) would interleave draws nondeterministically. Instead each
// component derives its own RNG via Split, which produces streams that are
// independent for practical purposes.
package rng

import "math"

// RNG is a xoshiro256** generator seeded through SplitMix64.
// The zero value is not valid; use New or Split.
type RNG struct {
	s [4]uint64
	// cached spare Gaussian deviate for NormFloat64 (Box-Muller pairs).
	spare    float64
	hasSpare bool
}

// splitmix64 advances a SplitMix64 state and returns the next output.
// It is used both to expand seeds and to derive split streams.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator deterministically derived from seed.
func New(seed uint64) *RNG {
	r := &RNG{}
	st := seed
	for i := range r.s {
		r.s[i] = splitmix64(&st)
	}
	// xoshiro must not start at the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Split derives an independent child generator keyed by label without
// perturbing the parent's own stream beyond one draw. Two children split
// from the same parent with different labels produce unrelated streams.
func (r *RNG) Split(label uint64) *RNG {
	st := r.Uint64() ^ (label * 0xd1342543de82ef95)
	return New(splitmix64(&st))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	aLo, aHi := a&mask32, a>>32
	bLo, bHi := b&mask32, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	lo = a * b
	hi = aHi*bHi + t>>32 + (t&mask32+aLo*bHi)>>32
	return hi, lo
}

// NormFloat64 returns a standard normal deviate via the Marsaglia polar
// method, caching the spare value.
func (r *RNG) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * f
		r.hasSpare = true
		return u * f
	}
}

// ExpFloat64 returns an exponentially distributed deviate with rate 1.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// LogNormal returns a deviate whose logarithm is normal with the given
// mean and standard deviation. Used by the latency models, whose empirical
// distributions on serverless platforms are heavy-tailed.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Perm returns a random permutation of [0, n) (Fisher-Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
