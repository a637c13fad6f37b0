package kmeans

import (
	"testing"

	"repro/internal/xrand"
)

// twoBlobs builds vectors from two well-separated code profiles; ys encode
// per-blob CPI.
func twoBlobs(n int, rng *xrand.Rand) ([]Vector, []float64) {
	vectors := make([]Vector, n)
	ys := make([]float64, n)
	for i := range vectors {
		v := Vector{}
		if i%2 == 0 {
			for f := uint64(0); f < 20; f++ {
				v[f] = 50 + rng.Intn(10)
			}
			ys[i] = 1.0 + rng.Norm(0, 0.02)
		} else {
			for f := uint64(100); f < 120; f++ {
				v[f] = 50 + rng.Intn(10)
			}
			ys[i] = 3.0 + rng.Norm(0, 0.02)
		}
		vectors[i] = v
	}
	return vectors, ys
}

func TestSeparatesObviousClusters(t *testing.T) {
	rng := xrand.New(1)
	vectors, _ := twoBlobs(60, rng)
	res, err := indexVectors(vectors).Cluster(2, 7, 50)
	if err != nil {
		t.Fatal(err)
	}
	// All even-indexed vectors must share a cluster; odd likewise.
	if res.Sizes[0] != 30 || res.Sizes[1] != 30 {
		t.Fatalf("sizes = %v", res.Sizes)
	}
	for i := 2; i < 60; i += 2 {
		if res.Assign[i] != res.Assign[0] {
			t.Fatalf("even vector %d in cluster %d, want %d", i, res.Assign[i], res.Assign[0])
		}
	}
	if res.Assign[1] == res.Assign[0] {
		t.Fatal("blobs merged")
	}
}

func TestPredictREOnCorrelatedData(t *testing.T) {
	// CPI follows the code blobs: K-means should explain nearly all
	// variance.
	rng := xrand.New(2)
	vectors, ys := twoBlobs(60, rng)
	res, _ := indexVectors(vectors).Cluster(2, 7, 50)
	if re := PredictRE(res, ys); re > 0.05 {
		t.Fatalf("RE = %v on perfectly code-correlated CPI", re)
	}
}

func TestPredictREWhenCPIUncorrelated(t *testing.T) {
	// Same code blobs but CPI assigned independently of them: clustering
	// on code cannot explain CPI (the §4.6 failure mode).
	rng := xrand.New(3)
	vectors, _ := twoBlobs(60, rng)
	ys := make([]float64, 60)
	for i := range ys {
		ys[i] = rng.Norm(2, 0.5)
	}
	res, _ := indexVectors(vectors).Cluster(2, 7, 50)
	if re := PredictRE(res, ys); re < 0.7 {
		t.Fatalf("RE = %v for code-uncorrelated CPI, want ~1", re)
	}
}

func TestKEqualsOne(t *testing.T) {
	rng := xrand.New(4)
	vectors, ys := twoBlobs(20, rng)
	res, err := indexVectors(vectors).Cluster(1, 7, 50)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sizes[0] != 20 {
		t.Fatalf("k=1 sizes = %v", res.Sizes)
	}
	// RE with one cluster is exactly 1 (mean predictor).
	if re := PredictRE(res, ys); re < 0.999 || re > 1.001 {
		t.Fatalf("k=1 RE = %v, want 1", re)
	}
}

func TestInvalidK(t *testing.T) {
	rng := xrand.New(5)
	vectors, _ := twoBlobs(10, rng)
	if _, err := indexVectors(vectors).Cluster(0, 1, 10); err == nil {
		t.Fatal("k=0 did not error")
	}
	if _, err := indexVectors(vectors).Cluster(11, 1, 10); err == nil {
		t.Fatal("k>n did not error")
	}
}

func TestDeterministic(t *testing.T) {
	rng := xrand.New(6)
	vectors, _ := twoBlobs(40, rng)
	a, _ := indexVectors(vectors).Cluster(4, 99, 50)
	b, _ := indexVectors(vectors).Cluster(4, 99, 50)
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("nondeterministic clustering")
		}
	}
}

func TestBestRE(t *testing.T) {
	rng := xrand.New(7)
	vectors, ys := twoBlobs(40, rng)
	re, k, err := indexVectors(vectors).BestRE(ys, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if re > 0.05 {
		t.Fatalf("BestRE = %v", re)
	}
	if k < 2 {
		t.Fatalf("best k = %d, want >= 2", k)
	}
}

func TestClusterCPIVariance(t *testing.T) {
	rng := xrand.New(8)
	vectors, ys := twoBlobs(40, rng)
	// Make one blob's CPI noisy.
	for i := 1; i < 40; i += 2 {
		ys[i] = rng.Norm(3, 0.8)
	}
	res, _ := indexVectors(vectors).Cluster(2, 7, 50)
	vars := ClusterCPIVariance(res, ys)
	noisy, quiet := vars[res.Assign[1]], vars[res.Assign[0]]
	if noisy <= quiet {
		t.Fatalf("noisy cluster variance %v <= quiet %v", noisy, quiet)
	}
}

func TestEmptyClusterReseeded(t *testing.T) {
	// Duplicated points force potential empty clusters; ensure all sizes
	// are positive.
	vectors := make([]Vector, 12)
	for i := range vectors {
		vectors[i] = Vector{1: 5}
	}
	vectors[11] = Vector{2: 100}
	res, err := indexVectors(vectors).Cluster(3, 1, 50)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range res.Sizes {
		if s == 0 {
			t.Fatalf("cluster %d empty: %v", i, res.Sizes)
		}
	}
	ref, err := referenceCluster(vectors, 3, 1, 50)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, ref, res, "empty-cluster fixture")
}
