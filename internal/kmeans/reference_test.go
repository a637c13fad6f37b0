package kmeans

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/rtree"
	"repro/internal/xrand"
)

// Vector is the oracle's sparse observation (EIP -> sample count).
type Vector map[uint64]int

// indexVectors reaches a Matrix the way the pipeline does: rtree
// indexes the rows and FromCSR shares the row CSR. Each map becomes one
// row of its positive counts in ascending EIP order.
func indexVectors(vectors []Vector) *Matrix {
	eips := make([][]uint64, len(vectors))
	counts := make([][]int64, len(vectors))
	for i, v := range vectors {
		for _, e := range sortedKeys(v) {
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
	return FromCSR(mtx.EIPs(), rs, rf, rc)
}

// This file retains the original map-based k-means kernel as the oracle
// for the dense kernel's equivalence tests, mirroring the pattern
// established for the regression tree (internal/rtree/reference_test.go). As
// a _test.go file it is compiled only into the tests and benchmarks.
//
// One deliberate deviation from the pre-dense code: every map iteration
// that feeds a floating-point accumulation walks its keys in ascending
// order (sortedKeys) instead of Go's per-iteration randomized map order.
// Ascending-key order is exactly the ascending-feature-ID order the dense
// Matrix stores rows and centroids in, so the patched reference computes
// the same sums in the same order and must agree with the dense kernel
// bit-for-bit — while the unpatched original differed from itself run to
// run by last-ulp drift, which Lloyd assignment thresholds occasionally
// amplified into different clusterings (the §7 snapshot nondeterminism
// this kernel replacement fixes).

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[uint64]V) []uint64 {
	out := make([]uint64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// refNorm2 returns the squared L2 norm, features ascending.
func refNorm2(v Vector) float64 {
	s := 0.0
	for _, f := range sortedKeys(v) {
		c := float64(v[f])
		s += c * c
	}
	return s
}

// refCentroid is dense over the union of features it has seen.
type refCentroid struct {
	sum   map[uint64]float64
	n     int
	norm2 float64 // cached squared norm of the mean
}

func (c *refCentroid) mean(f uint64) float64 {
	if c.n == 0 {
		return 0
	}
	return c.sum[f] / float64(c.n)
}

// dist2 returns squared Euclidean distance between v and the centroid's
// mean, computed sparsely: |v|² − 2·v·μ + |μ|².
func (c *refCentroid) dist2(v Vector, vn2 float64) float64 {
	dot := 0.0
	for _, f := range sortedKeys(v) {
		dot += float64(v[f]) * c.mean(f)
	}
	d := vn2 - 2*dot + c.norm2
	if d < 0 {
		d = 0
	}
	return d
}

func (c *refCentroid) finalize() {
	c.norm2 = 0
	if c.n == 0 {
		return
	}
	inv := 1 / float64(c.n)
	for _, f := range sortedKeys(c.sum) {
		m := c.sum[f] * inv
		c.norm2 += m * m
	}
}

// referenceCluster partitions vectors with the original map-based kernel.
func referenceCluster(vectors []Vector, k int, seed uint64, maxIter int) (*Result, error) {
	n := len(vectors)
	if k < 1 || k > n {
		return nil, fmt.Errorf("kmeans: k=%d outside [1, %d]", k, n)
	}
	if maxIter < 1 {
		maxIter = 50
	}
	rng := xrand.New(seed ^ 0x4b3a)
	norms := make([]float64, n)
	for i, v := range vectors {
		norms[i] = refNorm2(v)
	}

	// k-means++ seeding.
	centers := make([]*refCentroid, 0, k)
	addCenter := func(i int) {
		c := &refCentroid{sum: map[uint64]float64{}, n: 1}
		for _, f := range sortedKeys(vectors[i]) {
			c.sum[f] = float64(vectors[i][f])
		}
		c.finalize()
		centers = append(centers, c)
	}
	addCenter(rng.Intn(n))
	minD := make([]float64, n)
	for i := range minD {
		minD[i] = centers[0].dist2(vectors[i], norms[i])
	}
	for len(centers) < k {
		total := 0.0
		for _, d := range minD {
			total += d
		}
		var pick int
		if total <= 0 {
			pick = rng.Intn(n)
		} else {
			r := rng.Float64() * total
			acc := 0.0
			pick = n - 1
			for i, d := range minD {
				acc += d
				if acc >= r {
					pick = i
					break
				}
			}
		}
		addCenter(pick)
		last := centers[len(centers)-1]
		for i := range minD {
			if d := last.dist2(vectors[i], norms[i]); d < minD[i] {
				minD[i] = d
			}
		}
	}

	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	res := &Result{K: k, Assign: assign}
	for iter := 0; iter < maxIter; iter++ {
		res.Iterations = iter + 1
		changed := false
		for i, v := range vectors {
			best, bestD := 0, math.Inf(1)
			for ci, c := range centers {
				if d := c.dist2(v, norms[i]); d < bestD {
					best, bestD = ci, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed {
			break
		}
		// Recompute centroids.
		for _, c := range centers {
			c.sum = map[uint64]float64{}
			c.n = 0
		}
		for i, v := range vectors {
			c := centers[assign[i]]
			c.n++
			for _, f := range sortedKeys(v) {
				c.sum[f] += float64(v[f])
			}
		}
		for ci, c := range centers {
			if c.n == 0 {
				// Re-seed an empty cluster on the farthest point.
				far, farD := 0, -1.0
				for i, v := range vectors {
					if d := centers[assign[i]].dist2(v, norms[i]); d > farD {
						far, farD = i, d
					}
				}
				c.n = 1
				c.sum = map[uint64]float64{}
				for _, f := range sortedKeys(vectors[far]) {
					c.sum[f] = float64(vectors[far][f])
				}
				assign[far] = ci
			}
			c.finalize()
		}
	}
	res.Sizes = make([]int, k)
	for _, a := range assign {
		res.Sizes[a]++
	}
	return res, nil
}

// referenceBestRE sweeps the same graded k grid as Matrix.BestRE over the
// reference kernel.
func referenceBestRE(vectors []Vector, ys []float64, maxK int, seed uint64) (float64, int, error) {
	if maxK > len(vectors) {
		maxK = len(vectors)
	}
	grid := []int{1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16, 20, 26, 32, 40, 50}
	bestRE, bestK := math.Inf(1), 1
	for _, k := range grid {
		if k > maxK {
			break
		}
		res, err := referenceCluster(vectors, k, seed, 40)
		if err != nil {
			return 0, 0, err
		}
		if re := PredictRE(res, ys); re < bestRE {
			bestRE, bestK = re, k
		}
	}
	return bestRE, bestK, nil
}
