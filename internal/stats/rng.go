// Package stats provides deterministic pseudo-randomness and small
// statistical helpers used by the simulator and the experiment harness.
//
// All randomness in the repository flows through RNG so that every
// simulation run is exactly reproducible from a single uint64 seed,
// independently of the Go version and of map iteration order.
package stats

// RNG is a small, fast, deterministic pseudo-random generator based on
// splitmix64 seeding and xoshiro256** output. It is NOT cryptographically
// secure; the protocols under study explicitly avoid cryptography, and the
// simulator only needs reproducible randomness.
//
// The zero value is not ready for use; construct instances with NewRNG.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator deterministically seeded from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	// splitmix64 expansion of the seed into the xoshiro state, as
	// recommended by the xoshiro authors.
	x := seed
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
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

// LowBits returns the low bits of the next n Uint64 draws, draw k in bit
// k, for 0 <= n <= 64, and leaves the generator exactly where n Uint64
// calls would. It is Uint64's step with the state held in locals and
// written back once: Uint64 is too large to inline, so a caller that
// wants one bit per draw would otherwise pay a call per bit.
func (r *RNG) LowBits(n int) uint64 {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	var out uint64
	for k := 0; k < n; k++ {
		// Bit 0 of rotl(s1*5, 7)*9 is bit 57 of s1*5 (9 is odd). It
		// enters at the top and is shifted down by later draws, so draw
		// k ends in bit 64-n+k before the final shift.
		out = out>>1 | s1*5>>57<<63
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
	}
	r.s = [4]uint64{s0, s1, s2, s3}
	return out >> uint(64-n)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0, mirroring
// math/rand; callers validate n at configuration time.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	// Draws below 2^64 mod n are rejected, which keeps the result exactly
	// uniform. That threshold is itself below n, so it is computed (a
	// second division) only for a draw below n, where v % n is v.
	bound := uint64(n)
	for {
		v := r.Uint64()
		if v >= bound {
			return int(v % bound)
		}
		if v >= -bound%bound {
			return int(v)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability 1/2.
func (r *RNG) Bool() bool { return r.Uint64()&1 == 1 }

// Bernoulli returns true with probability p (clamped to [0,1]).
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a random permutation of [0, n), like math/rand.Perm.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	r.PermFill(p)
	return p
}

// PermFill overwrites p with a random permutation of [0, len(p)): the
// permutation, and the Intn draws behind it, that Perm(len(p)) returns,
// without allocating.
func (r *RNG) PermFill(p []int) {
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
}
