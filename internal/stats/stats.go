// Package stats implements the small statistical toolkit the analysis
// pipeline relies on: online (Welford) mean/variance accumulation and slice
// summaries.
//
// Everything here is deliberately dependency-free and deterministic; the
// regression-tree and sampling code build their error metrics out of these
// primitives.
package stats

// Acc accumulates a stream of float64 observations and reports count, mean,
// and variance without storing the stream. The zero value is an empty
// accumulator ready for use.
//
// The implementation is Welford's online algorithm, which is numerically
// stable for the long low-variance CPI streams the profiler produces.
type Acc struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (a *Acc) Add(x float64) {
	a.n++
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// N returns the number of observations.
func (a *Acc) N() int { return a.n }

// Mean returns the sample mean, or 0 for an empty accumulator.
func (a *Acc) Mean() float64 { return a.mean }

// Var returns the population variance (dividing by N), or 0 for fewer than
// one observation. The paper's CPI-variance thresholds are population
// variances of interval CPI, so this is the variant used throughout.
func (a *Acc) Var() float64 {
	if a.n < 1 {
		return 0
	}
	return a.m2 / float64(a.n)
}

// SampleVar returns the unbiased sample variance (dividing by N-1), or 0
// for fewer than two observations.
func (a *Acc) SampleVar() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Var returns the population variance of xs, or 0 for an empty slice.
func Var(xs []float64) float64 {
	var a Acc
	for _, x := range xs {
		a.Add(x)
	}
	return a.Var()
}
