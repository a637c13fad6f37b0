// Package kmeans implements the K-means clustering baseline the paper
// compares regression trees against (§4.6), in the style of the
// SimPoint/BBV phase-detection literature it cites: EIPVs are clustered on
// code-execution similarity alone — CPI plays no role in forming clusters —
// and each cluster is then assumed to be performance-homogeneous.
//
// The clustering runs on a dense-feature indexed Matrix (matrix.go) with
// k-means++ seeding and Lloyd iterations, all deterministic under an
// explicit seed: every floating-point accumulation follows a fixed,
// documented order, so two runs — and runs at any engine parallelism —
// produce bit-identical clusterings. The original map-backed kernel is
// retained in reference_test.go as the equivalence-test oracle.
package kmeans

import (
	"repro/internal/stats"
)

// Vector is a sparse observation (EIP -> sample count).
type Vector map[uint64]int

// Result is a clustering outcome.
type Result struct {
	K      int
	Assign []int // vector index -> cluster
	Sizes  []int
	// Iterations is the number of Lloyd passes performed.
	Iterations int
}

// Cluster partitions vectors into k clusters. It returns an error if k is
// not in [1, len(vectors)]. This is the map-API convenience wrapper around
// IndexVectors + Matrix.Cluster; callers clustering the same vectors more
// than once (e.g. a k sweep) should index once and use the Matrix methods.
func Cluster(vectors []Vector, k int, seed uint64, maxIter int) (*Result, error) {
	return IndexVectors(vectors).Cluster(k, seed, maxIter)
}

// BestRE is the map-API wrapper around IndexVectors + Matrix.BestRE.
func BestRE(vectors []Vector, ys []float64, maxK int, seed uint64) (float64, int, error) {
	return IndexVectors(vectors).BestRE(ys, maxK, seed)
}

// PredictRE evaluates how well the clustering predicts the responses ys
// (interval CPIs): each vector's prediction is its cluster's mean CPI, and
// the returned value is mean squared error over the population variance —
// directly comparable to the regression tree's relative error. This is the
// §4.6 comparison: K-means gets the *more favorable* in-sample evaluation
// and still loses, because CPI never drove its partitioning.
func PredictRE(res *Result, ys []float64) float64 {
	if len(ys) != len(res.Assign) {
		panic("kmeans: PredictRE length mismatch")
	}
	totalVar := stats.Var(ys)
	if totalVar <= 0 {
		return 0
	}
	sums := make([]float64, res.K)
	for i, a := range res.Assign {
		sums[a] += ys[i]
	}
	mse := 0.0
	for i, a := range res.Assign {
		mean := sums[a] / float64(res.Sizes[a])
		d := ys[i] - mean
		mse += d * d
	}
	mse /= float64(len(ys))
	return mse / totalVar
}

// ClusterCPIVariance returns each cluster's CPI variance — the quantity
// stratified sampling (§4.6, [25]) uses to allocate extra samples. A
// cluster with no members has no CPI distribution; its variance is
// reported as zero explicitly (never NaN), so downstream Neyman weights
// treat empty clusters as weightless.
func ClusterCPIVariance(res *Result, ys []float64) []float64 {
	accs := make([]stats.Acc, res.K)
	for i, a := range res.Assign {
		accs[a].Add(ys[i])
	}
	out := make([]float64, res.K)
	for i := range accs {
		if accs[i].N() == 0 {
			out[i] = 0
			continue
		}
		out[i] = accs[i].Var()
	}
	return out
}
