package sampling

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/kmeans"
	"repro/internal/xrand"
)

// randomVectors builds sparse EIPVs with strictly positive counts (as real
// profiles have) plus loosely phase-correlated CPIs.
func randomVectors(rng *xrand.Rand, n, feats, maxCount int) ([]vector, []float64) {
	vectors := make([]vector, n)
	cpis := make([]float64, n)
	for i := range vectors {
		v := vector{}
		blob := rng.Intn(3)
		for f := 0; f < feats; f++ {
			if rng.Bool(0.4) {
				v[uint64(blob*feats+f)] = rng.Range(1, maxCount)
			}
		}
		vectors[i] = v
		cpis[i] = 1.0 + float64(blob) + rng.Norm(0, 0.1)
	}
	return vectors, cpis
}

// TestRepresentativesEquivalence: the dense SimPoint representative search
// picks exactly the same intervals as the retained map-based oracle.
func TestRepresentativesEquivalence(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		vectors, _ := randomVectors(rng, 20+rng.Intn(100), 2+rng.Intn(10), 1+rng.Intn(30))
		mtx := indexVectors(vectors)
		k := 1 + rng.Intn(min(len(vectors), 10))
		res, err := mtx.Cluster(k, seed, 40)
		if err != nil {
			t.Fatal(err)
		}
		ref := referenceRepresentatives(res, vectors)
		dense := representatives(res, mtx)
		if len(ref) != len(dense) {
			t.Fatalf("seed %d: %d reps (reference) vs %d (dense)", seed, len(ref), len(dense))
		}
		for i := range ref {
			if ref[i] != dense[i] {
				t.Fatalf("seed %d: rep[%d] = %d (reference) vs %d (dense)", seed, i, ref[i], dense[i])
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestRepresentativesSkipsEmptyClusters: a hand-built Result with an empty
// cluster must not poison the search with NaN distances — the empty
// cluster is skipped and every non-empty cluster still gets a valid
// representative. Regression test for the Sizes[c]==0 division.
func TestRepresentativesSkipsEmptyClusters(t *testing.T) {
	vectors := []vector{{1: 5}, {1: 6}, {9: 4}}
	mtx := indexVectors(vectors)
	// Cluster 1 is empty; clusters 0 and 2 hold the two phases.
	res := &kmeans.Result{K: 3, Assign: []int{0, 0, 2}, Sizes: []int{2, 0, 1}}
	reps := representatives(res, mtx)
	if len(reps) != 2 {
		t.Fatalf("got %d representatives, want 2 (empty cluster skipped): %v", len(reps), reps)
	}
	if reps[0] != 0 && reps[0] != 1 {
		t.Fatalf("cluster 0 representative = %d, want member 0 or 1", reps[0])
	}
	if reps[1] != 2 {
		t.Fatalf("cluster 2 representative = %d, want 2", reps[1])
	}
	// The oracle applies the same guard.
	ref := referenceRepresentatives(res, vectors)
	for i := range reps {
		if ref[i] != reps[i] {
			t.Fatalf("oracle disagrees on guarded input: %v vs %v", ref, reps)
		}
	}
}

// TestClusterCPIVarianceEmptyCluster: the companion guard in kmeans — an
// empty cluster's variance is exactly 0, never NaN, so Neyman weights
// treat it as weightless.
func TestClusterCPIVarianceEmptyCluster(t *testing.T) {
	res := &kmeans.Result{K: 3, Assign: []int{0, 0, 2}, Sizes: []int{2, 0, 1}}
	vars := kmeans.ClusterCPIVariance(res, []float64{1, 3, 2})
	if len(vars) != 3 {
		t.Fatalf("got %d variances", len(vars))
	}
	for c, v := range vars {
		if math.IsNaN(v) {
			t.Fatalf("cluster %d variance is NaN", c)
		}
	}
	if vars[1] != 0 {
		t.Fatalf("empty cluster variance = %v, want 0", vars[1])
	}
}

// TestEvaluateZeroTruth: a zero true mean makes relative error undefined;
// Evaluate must flag it as NaN rather than claiming a perfect 0.
func TestEvaluateZeroTruth(t *testing.T) {
	cpis := []float64{0, 0, 0, 0}
	vectors := []vector{{1: 1}, {1: 1}, {2: 1}, {2: 1}}
	evals, err := Evaluate(cpis, indexVectors(vectors), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range evals {
		if !math.IsNaN(e.RelErr) {
			t.Fatalf("%s: RelErr = %v on zero truth, want NaN", e.Technique, e.RelErr)
		}
		if e.Defined() {
			t.Fatalf("%s: Defined() = true on zero truth", e.Technique)
		}
	}
	// Sanity: a nonzero truth keeps RelErr defined.
	evals, err = Evaluate([]float64{1, 1, 2, 2}, indexVectors(vectors), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range evals {
		if !e.Defined() {
			t.Fatalf("%s: RelErr undefined on nonzero truth", e.Technique)
		}
	}
}
