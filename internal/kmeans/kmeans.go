// Package kmeans implements the K-means clustering baseline the paper
// compares regression trees against (§4.6), in the style of the
// SimPoint/BBV phase-detection literature it cites: EIPVs are clustered on
// code-execution similarity alone — CPI plays no role in forming clusters —
// and each cluster is then assumed to be performance-homogeneous.
//
// The clustering runs on a dense-feature Matrix (matrix.go) with
// k-means++ seeding and Lloyd iterations, all deterministic under an
// explicit seed: every floating-point accumulation follows a fixed,
// documented order, so two runs — and runs at any engine parallelism —
// produce bit-identical clusterings. A Matrix is a view of an
// rtree.Matrix's row CSR (FromCSR); this package indexes nothing
// itself. The original map-backed kernel is retained in reference_test.go
// as the equivalence-test oracle.
package kmeans

import (
	"repro/internal/stats"
)

// Result is a clustering outcome.
type Result struct {
	K      int
	Assign []int // vector index -> cluster
	Sizes  []int
	// Iterations is the number of Lloyd passes performed.
	Iterations int
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
