package sampling

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

// phased builds a CPI series with two clean phases of unequal length
// (cycle: 30 intervals at CPI 1.0, then 10 at 4.0) and matching EIPVs.
// True mean CPI = 1.75.
// Defined reports whether RelErr carries a meaningful value (the true
// mean was nonzero).
func (e Eval) Defined() bool { return !math.IsNaN(e.RelErr) }

func phased(m int) ([]float64, []vector) {
	cpis := make([]float64, m)
	vectors := make([]vector, m)
	for i := range cpis {
		if i%40 < 30 {
			cpis[i] = 1.0
			vectors[i] = vector{1: 90, 2: 10}
		} else {
			cpis[i] = 4.0
			vectors[i] = vector{7: 80, 8: 20}
		}
	}
	return cpis, vectors
}

func TestUniformOnFlatSeries(t *testing.T) {
	cpis := make([]float64, 100)
	for i := range cpis {
		cpis[i] = 2.0
	}
	est, n, err := Estimate(Uniform, cpis, nil, 5, 1)
	if err != nil || n != 5 {
		t.Fatalf("err=%v n=%d", err, n)
	}
	if est != 2.0 {
		t.Fatalf("estimate = %v", est)
	}
}

func TestPhaseBasedNailsPhasedWorkload(t *testing.T) {
	cpis, vectors := phased(120)
	est, sim, err := Estimate(PhaseBased, cpis, indexVectors(vectors), 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sim != 2 {
		t.Fatalf("simulated %d intervals, want 2", sim)
	}
	if math.Abs(est-1.75) > 1e-9 {
		t.Fatalf("phase-based estimate %v, want exactly 1.75", est)
	}
}

func TestUniformNeedsMoreOnPhasedWorkload(t *testing.T) {
	// With a tiny budget, uniform can alias against the phase period;
	// phase-based with the same budget is exact. This is the paper's Q-IV
	// argument.
	cpis, vectors := phased(120)
	evals, err := Evaluate(cpis, indexVectors(vectors), 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	var uni, phase float64
	for _, e := range evals {
		switch e.Technique {
		case Uniform:
			uni = e.RelErr
		case PhaseBased:
			phase = e.RelErr
		}
	}
	if phase > 1e-9 {
		t.Fatalf("phase-based error %v on clean phases", phase)
	}
	if uni <= phase {
		t.Fatalf("uniform (%v) not worse than phase-based (%v) at budget 2", uni, phase)
	}
}

func TestRandomUnbiasedOnLowVariance(t *testing.T) {
	rng := xrand.New(5)
	cpis := make([]float64, 200)
	for i := range cpis {
		cpis[i] = 2 + rng.Norm(0, 0.05)
	}
	est, _, err := Estimate(Random, cpis, nil, 10, 9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est-2) > 0.1 {
		t.Fatalf("random estimate %v far from 2", est)
	}
}

func TestStratifiedBeatsPhaseOnNoisyCluster(t *testing.T) {
	// One phase has huge internal CPI variance: a single representative
	// per phase is risky; stratified spends extra samples there.
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
	// Average error over several seeds to avoid a lucky representative.
	mtx := indexVectors(vectors)
	var stratErr, phaseErr float64
	const trials = 10
	for s := uint64(0); s < trials; s++ {
		evals, err := Evaluate(cpis, mtx, 8, s)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range evals {
			switch e.Technique {
			case Stratified:
				stratErr += e.RelErr
			case PhaseBased:
				phaseErr += e.RelErr
			}
		}
	}
	if stratErr >= phaseErr {
		t.Fatalf("stratified (%v) not better than phase-based (%v) on noisy cluster", stratErr/trials, phaseErr/trials)
	}
}

func TestBudgetClamped(t *testing.T) {
	cpis := []float64{1, 2, 3}
	est, n, err := Estimate(Random, cpis, nil, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("n = %d, want clamped to 3", n)
	}
	if math.Abs(est-2) > 1e-9 {
		t.Fatalf("full-sample estimate %v", est)
	}
}

func TestErrors(t *testing.T) {
	if _, _, err := Estimate(Uniform, nil, nil, 3, 1); err == nil {
		t.Fatal("empty series did not error")
	}
	if _, _, err := Estimate(Uniform, []float64{1}, nil, 0, 1); err == nil {
		t.Fatal("zero budget did not error")
	}
	if _, _, err := Estimate(PhaseBased, []float64{1, 2}, nil, 1, 1); err == nil {
		t.Fatal("phase-based without vectors did not error")
	}
}

func TestTechniqueStrings(t *testing.T) {
	want := map[Technique]string{Uniform: "uniform", Random: "random", PhaseBased: "phase-based", Stratified: "stratified", TwoPhase: "two-phase"}
	for tech, s := range want {
		if tech.String() != s {
			t.Errorf("%d.String() = %q", int(tech), tech.String())
		}
	}
	if len(Techniques()) != len(want) {
		t.Fatal("Techniques() incomplete")
	}
}

// TestDrawWithoutReplacementDistinct: the partial Fisher–Yates behind
// the stratified estimators draws distinct members only, never more than
// the population, and continues correctly across two passes (the
// two-phase pilot → phase-2 pattern). Regression test for the old
// modular-arithmetic draw that could pick the same interval twice.
func TestDrawWithoutReplacementDistinct(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		rng := xrand.New(seed)
		size := 1 + rng.Intn(20)
		mem := make([]int, size)
		for i := range mem {
			mem[i] = 100 + i
		}
		first := rng.Intn(size + 2)
		drawn := drawWithoutReplacement(rng, mem, 0, first)
		drawn = drawWithoutReplacement(rng, mem, drawn, rng.Intn(size+2))
		if drawn > size {
			t.Fatalf("seed %d: drew %d from a population of %d", seed, drawn, size)
		}
		seen := map[int]bool{}
		for _, idx := range mem[:drawn] {
			if seen[idx] {
				t.Fatalf("seed %d: index %d drawn twice", seed, idx)
			}
			seen[idx] = true
		}
	}
}

// TestStratifiedSamplesDistinctIntervals: with budget == population, the
// stratified estimate must equal the true mean exactly — every interval
// sampled once, none twice. Under the old with-replacement draw, most
// seeds duplicated some interval and missed the census mean, overstating
// Eval.Simulated's claim of distinct simulated intervals.
func TestStratifiedSamplesDistinctIntervals(t *testing.T) {
	cpis, vectors := phased(80)
	truth := 0.0
	for _, c := range cpis {
		truth += c
	}
	truth /= float64(len(cpis))
	mtx := indexVectors(vectors)
	for seed := uint64(0); seed < 20; seed++ {
		for _, tech := range []Technique{Stratified, TwoPhase} {
			est, sim, err := Estimate(tech, cpis, mtx, len(cpis), seed)
			if err != nil {
				t.Fatal(err)
			}
			if sim != len(cpis) {
				t.Fatalf("%s seed %d: simulated %d of %d intervals at full budget", tech, seed, sim, len(cpis))
			}
			if math.Abs(est-truth) > 1e-9 {
				t.Fatalf("%s seed %d: census estimate %v != true mean %v (a duplicate draw?)", tech, seed, est, truth)
			}
		}
	}
}

// TestStratifiedSpendsFullBudgetOnZeroVariance: when every cluster's CPI
// variance is zero the Neyman weights vanish; the allocation must fall
// back to proportional-to-size rather than silently dropping the n−K
// remaining budget. Regression test for the total==0 early-out.
func TestStratifiedSpendsFullBudgetOnZeroVariance(t *testing.T) {
	m := 100
	cpis := make([]float64, m)
	vectors := make([]vector, m)
	for i := range cpis {
		cpis[i] = 2.0 // constant CPI: all cluster variances are exactly 0
		if i%2 == 0 {
			vectors[i] = vector{1: 90}
		} else {
			vectors[i] = vector{7: 90}
		}
	}
	mtx := indexVectors(vectors)
	const budget = 12
	for _, tech := range []Technique{Stratified, TwoPhase} {
		est, sim, err := Estimate(tech, cpis, mtx, budget, 3)
		if err != nil {
			t.Fatal(err)
		}
		if sim != budget {
			t.Fatalf("%s: simulated %d intervals of a %d budget on a zero-variance series", tech, sim, budget)
		}
		if math.Abs(est-2.0) > 1e-12 {
			t.Fatalf("%s: estimate %v on a constant series", tech, est)
		}
	}
}

// TestNegativeSeriesRelativeMetrics: relative metrics divide by
// magnitudes, so a negative-mean series yields non-negative relative
// errors and bounds. Regression test for the signed denominators in
// Evaluate (RelErr = |est−truth|/truth) and EstimateWithBound
// (Relative = Half/est).
func TestNegativeSeriesRelativeMetrics(t *testing.T) {
	rng := xrand.New(17)
	m := 120
	cpis := make([]float64, m)
	vectors := make([]vector, m)
	for i := range cpis {
		cpis[i] = -2 + rng.Norm(0, 0.1)
		if i%3 == 0 {
			vectors[i] = vector{1: 50, 2: 50}
		} else {
			vectors[i] = vector{5: 100}
		}
	}
	evals, err := Evaluate(cpis, indexVectors(vectors), 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range evals {
		if !e.Defined() {
			t.Fatalf("%s: RelErr undefined on nonzero (negative) truth", e.Technique)
		}
		if e.RelErr < 0 {
			t.Fatalf("%s: negative relative error %v on negative-mean series", e.Technique, e.RelErr)
		}
		if e.RelErr > 0.5 {
			t.Fatalf("%s: implausible relative error %v", e.Technique, e.RelErr)
		}
	}
	b, err := EstimateWithBound(cpis, 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	if b.Relative < 0 {
		t.Fatalf("negative relative bound %v on negative-mean series", b.Relative)
	}
	if b.Half <= 0 {
		t.Fatalf("half-width %v", b.Half)
	}
}

// TestEstimatePropertiesAllTechniques: for every technique under random
// budgets and seeds — the estimate is finite, the simulated count is
// positive and never exceeds the (population-clamped) budget, and two
// identical calls return bit-identical results.
func TestEstimatePropertiesAllTechniques(t *testing.T) {
	for trial := uint64(0); trial < 15; trial++ {
		rng := xrand.New(trial ^ 0xabcde)
		vectors, cpis := randomVectors(rng, 20+rng.Intn(150), 2+rng.Intn(20), 1+rng.Intn(40))
		mtx := indexVectors(vectors)
		budget := 1 + rng.Intn(2*len(cpis))
		seed := rng.Uint64()
		clamped := budget
		if clamped > len(cpis) {
			clamped = len(cpis)
		}
		for _, tech := range Techniques() {
			est, sim, err := Estimate(tech, cpis, mtx, budget, seed)
			if err != nil {
				t.Fatalf("%s trial %d: %v", tech, trial, err)
			}
			if math.IsNaN(est) || math.IsInf(est, 0) {
				t.Fatalf("%s trial %d: estimate %v not finite", tech, trial, est)
			}
			if sim < 1 || sim > clamped {
				t.Fatalf("%s trial %d: simulated %d outside [1, %d]", tech, trial, sim, clamped)
			}
			est2, sim2, err := Estimate(tech, cpis, mtx, budget, seed)
			if err != nil || est2 != est || sim2 != sim {
				t.Fatalf("%s trial %d: nondeterministic (%v,%d) vs (%v,%d), err %v",
					tech, trial, est, sim, est2, sim2, err)
			}
		}
	}
}

func TestEstimateWithBoundCoverage(t *testing.T) {
	// The 95% interval should cover the true mean for the vast majority
	// of seeds.
	rng := xrand.New(31)
	cpis := make([]float64, 300)
	for i := range cpis {
		cpis[i] = 2 + rng.Norm(0, 0.4)
	}
	truth := 0.0
	for _, c := range cpis {
		truth += c
	}
	truth /= float64(len(cpis))
	covered := 0
	const trials = 200
	for s := uint64(0); s < trials; s++ {
		b, err := EstimateWithBound(cpis, 30, s)
		if err != nil {
			t.Fatal(err)
		}
		if b.N != 30 || b.Half <= 0 {
			t.Fatalf("bound %+v malformed", b)
		}
		if b.Covers(truth) {
			covered++
		}
	}
	if covered < trials*85/100 {
		t.Fatalf("interval covered truth only %d/%d times", covered, trials)
	}
}

func TestEstimateWithBoundShrinksWithN(t *testing.T) {
	rng := xrand.New(33)
	cpis := make([]float64, 400)
	for i := range cpis {
		cpis[i] = 3 + rng.Norm(0, 0.5)
	}
	small, _ := EstimateWithBound(cpis, 10, 1)
	large, _ := EstimateWithBound(cpis, 200, 1)
	if large.Half >= small.Half {
		t.Fatalf("bound did not shrink: n=10 %.3f vs n=200 %.3f", small.Half, large.Half)
	}
	// Full census has zero sampling error (finite population correction).
	full, _ := EstimateWithBound(cpis, 400, 1)
	if full.Half > 1e-9 {
		t.Fatalf("census bound %.6f, want 0", full.Half)
	}
}

func TestEstimateWithBoundErrors(t *testing.T) {
	if _, err := EstimateWithBound(nil, 5, 1); err == nil {
		t.Fatal("empty series did not error")
	}
	if _, err := EstimateWithBound([]float64{1, 2, 3}, 1, 1); err == nil {
		t.Fatal("n=1 did not error")
	}
}

func TestRequiredSamples(t *testing.T) {
	rng := xrand.New(41)
	// Low-variance series: a couple of samples suffice.
	flat := make([]float64, 300)
	for i := range flat {
		flat[i] = 2 + rng.Norm(0, 0.02)
	}
	nFlat, err := RequiredSamples(flat, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	// High-variance series needs far more for the same target.
	wild := make([]float64, 300)
	for i := range wild {
		wild[i] = 2 + rng.Norm(0, 1.0)
	}
	nWild, err := RequiredSamples(wild, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if nFlat >= nWild {
		t.Fatalf("flat series needs %d samples, wild needs %d — ordering wrong", nFlat, nWild)
	}
	if nWild > 300 {
		t.Fatalf("requirement %d exceeds census size", nWild)
	}
	// The computed n must actually deliver the target accuracy (check by
	// averaging realized error over seeds).
	var worst float64
	for s := uint64(0); s < 50; s++ {
		b, err := EstimateWithBound(wild, nWild, s)
		if err != nil {
			t.Fatal(err)
		}
		if b.Relative > worst {
			worst = b.Relative
		}
	}
	if worst > 0.04 { // allow 2x slack over the 2% target
		t.Fatalf("computed n=%d gave worst-case predicted error %.3f", nWild, worst)
	}
}

func TestRequiredSamplesErrors(t *testing.T) {
	if _, err := RequiredSamples(nil, 0.05); err == nil {
		t.Fatal("empty series did not error")
	}
	if _, err := RequiredSamples([]float64{1}, 0); err == nil {
		t.Fatal("zero target did not error")
	}
	// Constant series: minimum sample count.
	n, err := RequiredSamples([]float64{2, 2, 2, 2}, 0.01)
	if err != nil || n != 2 {
		t.Fatalf("constant series n=%d err=%v", n, err)
	}
}
