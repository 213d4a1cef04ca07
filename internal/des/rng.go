// Package des is a small discrete-event simulation engine: a future-event
// list with cancellation, a fast deterministic random number generator, and
// replication statistics. It powers the event-level perception-system
// simulator (package percept) used to cross-validate the analytic DSPN
// solvers.
package des

import (
	"math"
	"math/bits"
	"math/rand/v2"
)

// RNG is a deterministic pseudo-random generator (xoshiro256** seeded via
// splitmix64). It is not cryptographically secure; it exists so simulation
// runs are reproducible from a seed and allocation-free.
//
// The 32 bytes of state are padded to a whole 64-byte cache line. Streams
// forked back to back (Replicate's per-replication streams) are then
// allocated in Go's 64-byte size class, whose objects start on a line
// boundary, so two replications running on different cores never write
// the same line: unpadded, neighbouring forks shared one, and every
// Uint64 made it bounce between the cores.
type RNG struct {
	s [4]uint64
	_ [cacheLine - 32]byte
}

// cacheLine is the cache-line size, in bytes, that RNG is padded to.
const cacheLine = 64

// NewRNG returns a generator seeded from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets r to the state NewRNG(seed) starts in, so a caller can
// re-seed one generator in place instead of allocating a fresh one.
func (r *RNG) Seed(seed uint64) {
	// splitmix64 expansion of the seed into the xoshiro state.
	x := seed
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Float64 returns a uniform sample in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Exp returns an exponential sample with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("des: exponential mean must be positive")
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Norm returns a standard normal sample: the stdlib ziggurat sampler
// (Marsaglia and Tsang, J. Stat. Softw. 2000) of math/rand/v2 drawing
// from r, which is a rand.Source. Most draws cost one Uint64, a multiply
// and a table compare, where Box–Muller pays a Log, a Sqrt and a Cos.
func (r *RNG) Norm() float64 {
	return rand.New(r).NormFloat64()
}

// Intn returns a uniform sample in [0, n).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("des: Intn bound must be positive")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded ints.
	bound := uint64(n)
	for {
		x := r.Uint64()
		hi, lo := bits.Mul64(x, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// Fork derives an independent generator, for per-replication streams.
func (r *RNG) Fork() *RNG {
	return NewRNG(r.Uint64())
}
