// Package xrand provides the deterministic pseudo-random machinery used by
// every stochastic component in this repository.
//
// All randomness flows through an explicit *Rand carrying an explicit seed,
// so that a workload run is a pure function of its configuration: two runs
// with the same seed produce byte-identical profiles. The generator is a
// hand-rolled PCG-XSL-RR 128/64 so results are stable across Go releases
// (math/rand's global source and Go-version-dependent algorithms are never
// used).
//
// The package also provides the distribution helpers the workload models
// need: uniform ranges, Bernoulli, exponential, normal, Zipf (for skewed
// database key popularity), and in-place permutation.
package xrand

import (
	"math"
	"math/bits"
)

// Rand is a deterministic PCG-based pseudo-random generator.
//
// The zero value is NOT ready for use; construct with New. Rand is not safe
// for concurrent use; give each simulated thread its own stream via Split.
type Rand struct {
	hi, lo uint64 // 128-bit state
	incHi  uint64
	incLo  uint64
}

const (
	mulHi = 2549297995355413924
	mulLo = 4865540595714422341
)

// New returns a generator seeded from seed. Distinct seeds give
// independent-looking streams.
func New(seed uint64) *Rand {
	r := &Rand{incHi: 6364136223846793005, incLo: 1442695040888963407 | 1}
	// Scramble the seed through the state a few times so that nearby seeds
	// (0, 1, 2, ...) diverge immediately.
	r.hi = seed * 0x9e3779b97f4a7c15
	r.lo = seed ^ 0xda3e39cb94b95bdb
	for i := 0; i < 4; i++ {
		r.Uint64()
	}
	return r
}

// Split derives an independent child generator. The child's stream is a
// deterministic function of the parent's seed and the label, and drawing
// from the child does not perturb the parent.
func (r *Rand) Split(label uint64) *Rand {
	// Hash the current state with the label rather than consuming parent
	// output, so Split is insensitive to how much the parent has been used
	// only through its current position, which is already deterministic.
	h := r.hi ^ (label * 0xbf58476d1ce4e5b9)
	l := r.lo ^ (label*0x94d049bb133111eb + 0x2545f4914f6cdd1d)
	c := New(h ^ (l >> 1))
	c.hi ^= l
	c.Uint64()
	return c
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	// 128-bit LCG step: state = state*mul + inc.
	carryHi, loProd := bits.Mul64(r.lo, mulLo)
	hiProd := r.hi*mulLo + r.lo*mulHi + carryHi
	lo, carry := bits.Add64(loProd, r.incLo, 0)
	r.lo = lo
	r.hi = hiProd + r.incHi + carry
	// PCG-XSL-RR output function.
	x := r.hi ^ r.lo
	rot := uint(r.hi >> 58)
	return x>>rot | x<<((64-rot)&63)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a uniform uint64 in [0, n). It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with zero n")
	}
	return r.Uint64() % n
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	return r.Float64() < p
}

// Range returns a uniform int in [lo, hi]. It panics if hi < lo.
func (r *Rand) Range(lo, hi int) int {
	if hi < lo {
		panic("xrand: Range with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Exp returns an exponentially distributed float64 with the given mean.
func (r *Rand) Exp(mean float64) float64 {
	u := r.Float64()
	if u >= 1 {
		u = 0.9999999999999999
	}
	return -mean * math.Log(1-u)
}

// Norm returns a normally distributed float64 with the given mean and
// standard deviation, via the Box-Muller transform.
func (r *Rand) Norm(mean, stddev float64) float64 {
	u1 := r.Float64()
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// Perm fills p with a uniform random permutation of [0, len(p)).
func (r *Rand) Perm(p []int) {
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Zipf generates Zipf-distributed values over [0, n) with skew parameter
// s > 0 (larger s = more skew toward small values). It precomputes the CDF,
// so construction is O(n) and each draw is O(log n).
type Zipf struct {
	cdf []float64
}

// NewZipf builds a Zipf distribution over n items with exponent s.
// It panics if n <= 0 or s < 0.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("xrand: NewZipf with non-positive n")
	}
	if s < 0 {
		panic("xrand: NewZipf with negative s")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	inv := 1 / sum
	for i := range cdf {
		cdf[i] *= inv
	}
	cdf[n-1] = 1 // guard against rounding
	return &Zipf{cdf: cdf}
}

// N returns the number of items in the distribution's support.
func (z *Zipf) N() int { return len(z.cdf) }

// Draw returns a Zipf-distributed value in [0, N()).
func (z *Zipf) Draw(r *Rand) int {
	u := r.Float64()
	// Binary search for the first CDF entry >= u.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
