package sampling

import (
	"fmt"
	"math"

	"repro/internal/stats"
	"repro/internal/xrand"
)

// Bound is a statistical error bound for a random-sampling estimate, in
// the style of the SMARTS/statistical-sampling work the paper's §7 points
// Q-III workloads toward: sampling theory predicts the estimate's error
// without knowing the truth.
type Bound struct {
	Estimate float64
	// Half is the half-width of the ~95% confidence interval for the mean
	// (1.96 * s/sqrt(n), finite-population corrected).
	Half float64
	// Relative is Half / |Estimate| — the magnitude of the estimate, so a
	// negative-mean series still reports a non-negative relative
	// half-width. Zero when the estimate itself is zero.
	Relative float64
	N        int
}

// Covers reports whether the interval contains the given true mean.
func (b Bound) Covers(truth float64) bool {
	return truth >= b.Estimate-b.Half && truth <= b.Estimate+b.Half
}

// EstimateWithBound performs random sampling of n intervals and returns
// the estimate together with its predicted 95% confidence half-width —
// the quantity a statistical-sampling methodology reports so the
// architect knows whether the sample budget sufficed.
func EstimateWithBound(cpis []float64, n int, seed uint64) (Bound, error) {
	m := len(cpis)
	if m == 0 {
		return Bound{}, fmt.Errorf("sampling: empty CPI series")
	}
	if n < 2 {
		return Bound{}, fmt.Errorf("sampling: need at least two samples for a bound, got %d", n)
	}
	if n > m {
		n = m
	}
	rng := xrand.New(seed ^ 0xb0d)
	perm := make([]int, m)
	rng.Perm(perm)
	var acc stats.Acc
	for i := 0; i < n; i++ {
		acc.Add(cpis[perm[i]])
	}
	est := acc.Mean()
	se := math.Sqrt(acc.SampleVar() / float64(n))
	// Finite population correction: sampling without replacement from m
	// intervals.
	if m > 1 {
		se *= math.Sqrt(float64(m-n) / float64(m-1))
	}
	b := Bound{Estimate: est, Half: 1.96 * se, N: n}
	if est != 0 {
		b.Relative = b.Half / math.Abs(est)
	}
	return b, nil
}
