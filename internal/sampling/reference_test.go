package sampling

import (
	"math"
	"slices"

	"repro/internal/kmeans"
	"repro/internal/rtree"
)

// vector is the oracle's sparse observation (EIP -> sample count).
type vector = map[uint64]int

// indexVectors reaches a kmeans.Matrix the way the pipeline does: rtree
// indexes the rows and kmeans.FromCSR shares the row CSR. Each map becomes one
// row of its positive counts in ascending EIP order.
func indexVectors(vectors []vector) *kmeans.Matrix {
	eips := make([][]uint64, len(vectors))
	counts := make([][]int64, len(vectors))
	for i, v := range vectors {
		for _, e := range refSortedKeys(v) {
			if c := v[e]; c > 0 {
				eips[i] = append(eips[i], e)
				counts[i] = append(counts[i], int64(c))
			}
		}
	}
	mtx, err := rtree.IndexRows(make([]float64, len(vectors)), func(i int) ([]uint64, []int64) { return eips[i], counts[i] })
	if err != nil {
		panic(err)
	}
	rs, rf, rc := mtx.RowCSR()
	return kmeans.FromCSR(mtx.EIPs(), rs, rf, rc)
}

// This file retains the original map-based SimPoint representative search
// as the oracle for the dense kernel's equivalence tests, mirroring the
// kmeans and rtree reference files. As there, the one deliberate deviation
// from the pre-dense code is that map iterations feeding floating-point
// accumulations walk their keys in ascending order — the ascending
// feature-ID order the dense kernel uses — so the oracle is bit-equal to
// representatives() rather than varying run to run with Go's randomized
// map order. As a _test.go file it is compiled only into the tests and
// benchmarks.

func refSortedKeys[V any](m map[uint64]V) []uint64 {
	out := make([]uint64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// referenceRepresentatives picks, per non-empty cluster, the member
// closest to the cluster's centroid, with map-backed centroid sums.
func referenceRepresentatives(res *kmeans.Result, vectors []vector) []int {
	sums := make([]map[uint64]float64, res.K)
	for i := range sums {
		sums[i] = map[uint64]float64{}
	}
	for i, v := range vectors {
		c := res.Assign[i]
		if res.Sizes[c] == 0 {
			continue
		}
		for _, f := range refSortedKeys(v) {
			sums[c][f] += float64(v[f])
		}
	}
	best := make([]int, res.K)
	bestD := make([]float64, res.K)
	for c := range best {
		best[c] = -1
		bestD[c] = math.Inf(1)
	}
	for i, v := range vectors {
		c := res.Assign[i]
		if res.Sizes[c] == 0 {
			continue
		}
		n := float64(res.Sizes[c])
		d := 0.0
		seen := map[uint64]bool{}
		for _, f := range refSortedKeys(v) {
			mu := sums[c][f] / n
			diff := float64(v[f]) - mu
			d += diff * diff
			seen[f] = true
		}
		for _, f := range refSortedKeys(sums[c]) {
			if !seen[f] {
				mu := sums[c][f] / n
				d += mu * mu
			}
		}
		if d < bestD[c] {
			bestD[c] = d
			best[c] = i
		}
	}
	out := best[:0]
	for _, b := range best {
		if b >= 0 {
			out = append(out, b)
		}
	}
	return out
}
