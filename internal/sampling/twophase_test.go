package sampling

import (
	"math"
	"testing"

	"repro/internal/kmeans"
	"repro/internal/xrand"
)

// TestTwoPhaseExactOnCleanPhases: on a workload whose strata are
// internally constant, the pilot observes zero variance, the fallback
// spends the remaining budget proportionally, and every stratum mean is
// exact — so the two-phase estimate hits the true mean exactly even
// though it never consults the full series.
func TestTwoPhaseExactOnCleanPhases(t *testing.T) {
	cpis, vectors := phased(120) // true mean 1.75
	mtx := indexVectors(vectors)
	for _, budget := range []int{8, 12, 20} {
		est, sim, err := Estimate(TwoPhase, cpis, mtx, budget, 3)
		if err != nil {
			t.Fatal(err)
		}
		if sim != budget {
			t.Fatalf("budget %d: simulated %d", budget, sim)
		}
		if math.Abs(est-1.75) > 1e-9 {
			t.Fatalf("budget %d: estimate %v, want exactly 1.75", budget, est)
		}
	}
}

// TestTwoPhaseTargetsObservedVariance: the phase-2 budget must
// concentrate on the stratum whose *pilot* showed variance. With one
// noisy and one constant phase and enough budget, two-phase should beat
// plain phase-based (one representative per cluster) on average, for the
// same reason stratified does — but without stratified's oracle
// variances.
func TestTwoPhaseTargetsObservedVariance(t *testing.T) {
	rng := xrand.New(11)
	m := 200
	cpis := make([]float64, m)
	vectors := make([]vector, m)
	for i := range cpis {
		if i%2 == 0 {
			cpis[i] = 1.0
			vectors[i] = vector{1: 100}
		} else {
			cpis[i] = 4 + rng.Norm(0, 1.5)
			vectors[i] = vector{9: 100}
		}
	}
	mtx := indexVectors(vectors)
	var twoErr, phaseErr float64
	const trials = 10
	for s := uint64(0); s < trials; s++ {
		evals, err := Evaluate(cpis, mtx, 16, s)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range evals {
			switch e.Technique {
			case TwoPhase:
				twoErr += e.RelErr
			case PhaseBased:
				phaseErr += e.RelErr
			}
		}
	}
	if twoErr >= phaseErr {
		t.Fatalf("two-phase (%v) not better than phase-based (%v) on noisy cluster",
			twoErr/trials, phaseErr/trials)
	}
}

// TestTwoPhasePilotCoversStrata: the pilot gives at least two samples to
// every stratum the budget can cover, so each observed variance is a real
// (if noisy) sample variance rather than a degenerate single point.
func TestTwoPhasePilotCoversStrata(t *testing.T) {
	cpis, vectors := phased(120)
	// Hand-built strata so the pilot path is observable: three strata of
	// 40 members each.
	assign := make([]int, len(cpis))
	for i := range assign {
		assign[i] = i % 3
	}
	res := &kmeans.Result{K: 3, Assign: assign, Sizes: []int{40, 40, 40}}
	_ = vectors
	est, sim, err := twoPhaseEstimate(res, cpis, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sim != 10 {
		t.Fatalf("simulated %d of 10", sim)
	}
	if math.IsNaN(est) {
		t.Fatal("NaN estimate")
	}
	// A budget smaller than 2×K still spends everything it has.
	_, sim, err = twoPhaseEstimate(res, cpis, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sim != 4 {
		t.Fatalf("tiny budget: simulated %d of 4", sim)
	}
}

// TestTwoPhaseTinyBudgets: degenerate budgets (1..3) neither panic nor
// overrun the budget.
func TestTwoPhaseTinyBudgets(t *testing.T) {
	cpis, vectors := phased(40)
	mtx := indexVectors(vectors)
	for n := 1; n <= 3; n++ {
		est, sim, err := Estimate(TwoPhase, cpis, mtx, n, 9)
		if err != nil {
			t.Fatal(err)
		}
		if sim < 1 || sim > n {
			t.Fatalf("budget %d: simulated %d", n, sim)
		}
		if math.IsNaN(est) || math.IsInf(est, 0) {
			t.Fatalf("budget %d: estimate %v", n, est)
		}
	}
}

// TestTwoPhaseNeedsMatrix mirrors the phase-based/stratified guard.
func TestTwoPhaseNeedsMatrix(t *testing.T) {
	if _, _, err := Estimate(TwoPhase, []float64{1, 2}, nil, 1, 1); err == nil {
		t.Fatal("two-phase without a matrix did not error")
	}
}

func sum(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

// TestAllocateProportional: proportional shares, capacity clamping with
// redistribution, the zero-weight capacity fallback, and determinism.
func TestAllocateProportional(t *testing.T) {
	// Pure proportionality: weights 3:1, ample capacity.
	alloc := allocateProportional(8, []float64{3, 1}, []int{100, 100})
	if alloc[0] != 6 || alloc[1] != 2 {
		t.Fatalf("proportional: %v", alloc)
	}
	// Capacity clamp: the heavy stratum can only hold 2; the overflow
	// must land in the light one, spending the full budget.
	alloc = allocateProportional(8, []float64{3, 1}, []int{2, 100})
	if alloc[0] != 2 || alloc[1] != 6 {
		t.Fatalf("clamped: %v", alloc)
	}
	// All weights zero: fall back to capacity-proportional, still
	// spending everything.
	alloc = allocateProportional(6, []float64{0, 0, 0}, []int{4, 4, 4})
	if sum(alloc) != 6 {
		t.Fatalf("zero-weight fallback dropped budget: %v", alloc)
	}
	// Budget beyond total capacity: saturate and stop.
	alloc = allocateProportional(50, []float64{1, 2}, []int{3, 4})
	if alloc[0] != 3 || alloc[1] != 4 {
		t.Fatalf("saturation: %v", alloc)
	}
	// Ties break toward the lower index.
	alloc = allocateProportional(3, []float64{1, 1}, []int{10, 10})
	if alloc[0] != 2 || alloc[1] != 1 {
		t.Fatalf("tie-break: %v", alloc)
	}
	// Zero-weight strata receive nothing while weighted strata have room.
	alloc = allocateProportional(4, []float64{0, 5}, []int{10, 10})
	if alloc[0] != 0 || alloc[1] != 4 {
		t.Fatalf("zero-weight stratum drew budget: %v", alloc)
	}
	// Determinism under awkward fractional shares.
	a := allocateProportional(7, []float64{0.3, 0.3, 0.4}, []int{3, 3, 3})
	b := allocateProportional(7, []float64{0.3, 0.3, 0.4}, []int{3, 3, 3})
	if sum(a) != 7 {
		t.Fatalf("fractional shares dropped budget: %v", a)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic: %v vs %v", a, b)
		}
	}
}
