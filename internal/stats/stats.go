// Package stats implements the small statistical toolkit the analysis
// pipeline relies on: online (Welford) mean/variance accumulation, slice
// summaries, quantiles, correlation, and simple fixed-width histograms.
//
// Everything here is deliberately dependency-free and deterministic; the
// regression-tree and sampling code build their error metrics out of these
// primitives.
package stats

import (
	"fmt"
	"math"
	"sort"
)

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

// AddN incorporates the observation x with integer weight w >= 0
// (equivalent to calling Add(x) w times).
func (a *Acc) AddN(x float64, w int) {
	for i := 0; i < w; i++ {
		a.Add(x)
	}
}

// Merge combines another accumulator into a (parallel Welford merge).
func (a *Acc) Merge(b *Acc) {
	if b.n == 0 {
		return
	}
	if a.n == 0 {
		*a = *b
		return
	}
	n := a.n + b.n
	d := b.mean - a.mean
	mean := a.mean + d*float64(b.n)/float64(n)
	m2 := a.m2 + b.m2 + d*d*float64(a.n)*float64(b.n)/float64(n)
	a.n, a.mean, a.m2 = n, mean, m2
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

// Stddev returns the population standard deviation.
func (a *Acc) Stddev() float64 { return math.Sqrt(a.Var()) }

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

// Stddev returns the population standard deviation of xs.
func Stddev(xs []float64) float64 { return math.Sqrt(Var(xs)) }

// Min returns the minimum of xs. It panics on an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs. It panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It panics on an empty slice or a
// q outside [0, 1]. xs is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty slice")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: Quantile q=%v outside [0,1]", q))
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(i)
	return s[i]*(1-frac) + s[i+1]*frac
}

// Median returns the 0.5 quantile of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Corr returns the Pearson correlation coefficient of xs and ys, or 0 if
// either series has zero variance. It panics if the lengths differ.
func Corr(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: Corr length mismatch")
	}
	if len(xs) == 0 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Histogram is a fixed-width histogram over [Lo, Hi); observations outside
// the range land in the first or last bucket.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	total  int
	width  float64
}

// NewHistogram returns a histogram with n equal-width buckets spanning
// [lo, hi). It panics if n <= 0 or hi <= lo.
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 {
		panic("stats: NewHistogram with non-positive bucket count")
	}
	if hi <= lo {
		panic("stats: NewHistogram with hi <= lo")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, n), width: (hi - lo) / float64(n)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	i := int((x - h.Lo) / h.width)
	if i < 0 {
		i = 0
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	h.Counts[i]++
	h.total++
}

// Total returns the number of recorded observations.
func (h *Histogram) Total() int { return h.total }

// Frac returns the fraction of observations in bucket i.
func (h *Histogram) Frac(i int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(h.total)
}
