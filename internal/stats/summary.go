package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrNoSamples is returned by summaries computed over empty sample sets.
var ErrNoSamples = errors.New("stats: no samples")

// summary holds basic descriptive statistics of a float64 sample.
type summary struct {
	N      int
	Mean   float64
	Min    float64
	Max    float64
	StdDev float64
	P50    float64
	P95    float64
	P99    float64
}

// summarize computes a summary over xs. It returns ErrNoSamples when xs is
// empty. It is the two-pass reference the streaming Moments is held to.
func summarize(xs []float64) (summary, error) {
	if len(xs) == 0 {
		return summary{}, ErrNoSamples
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)

	var sum float64
	for _, x := range sorted {
		sum += x
	}
	mean := sum / float64(len(sorted))
	var ss float64
	for _, x := range sorted {
		d := x - mean
		ss += d * d
	}
	sd := 0.0
	if len(sorted) > 1 {
		sd = math.Sqrt(ss / float64(len(sorted)-1))
	}
	return summary{
		N:      len(sorted),
		Mean:   mean,
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		StdDev: sd,
		P50:    Percentile(sorted, 0.50),
		P95:    Percentile(sorted, 0.95),
		P99:    Percentile(sorted, 0.99),
	}, nil
}

// Percentile returns the p-th percentile (p in [0,1]) of a sorted sample,
// interpolated linearly between the two ranks around p·(n−1); NaN if empty.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// WilsonInterval returns the Wilson score interval for a Bernoulli
// proportion with successes k out of n trials at ~95% confidence
// (z = 1.96). It is used to report measured failure probabilities against
// the paper's analytic bounds. It returns ErrNoSamples when n == 0.
func WilsonInterval(k, n int) (lo, hi float64, err error) {
	if n == 0 {
		return 0, 0, ErrNoSamples
	}
	const z = 1.96
	p := float64(k) / float64(n)
	nf := float64(n)
	denom := 1 + z*z/nf
	centre := p + z*z/(2*nf)
	half := z * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf))
	lo = (centre - half) / denom
	hi = (centre + half) / denom
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi, nil
}

// Log2Ceil returns ceil(log2(x)) for x >= 1, and 0 for x <= 1.
// The paper's budget formulas use base-2 logarithms of n, t and mmax;
// integer ceilings keep every derived budget integral.
func Log2Ceil(x int) int {
	if x <= 1 {
		return 0
	}
	n := 0
	v := 1
	for v < x {
		v <<= 1
		n++
	}
	return n
}

// Log2Floor returns floor(log2(x)) for x >= 1. It panics for x < 1; the
// coding layer validates segment lengths before calling it.
func Log2Floor(x int) int {
	if x < 1 {
		panic("stats: Log2Floor of non-positive value")
	}
	n := 0
	for x > 1 {
		x >>= 1
		n++
	}
	return n
}

// CeilDiv returns ceil(a/b) for positive b.
func CeilDiv(a, b int) int {
	if b <= 0 {
		panic("stats: CeilDiv with non-positive divisor")
	}
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}
