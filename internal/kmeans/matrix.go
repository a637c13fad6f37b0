package kmeans

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/par"
	"repro/internal/xrand"
)

// Matrix is the indexed, dense-feature form of a []Vector, mirroring the
// regression-tree kernel's rtree.Matrix: the sparse uint64 EIP space is
// remapped to dense int32 feature IDs (ascending-EIP order) and the
// nonzero observations are stored as row-major CSR — row r's (feature,
// count) pairs in ascending feature-ID order. Per-row squared norms are
// cached at construction.
//
// Every floating-point accumulation in the clustering kernels walks this
// layout in a fixed, documented order (rows ascending; within a row,
// features ascending; dense centroid passes over the full feature range
// ascending), so results are bit-identical across runs, map-hash seeds
// and Parallelism settings — the property the map-backed kernel lacked.
// The reference oracle (reference_test.go) pins the semantics.
//
// A Matrix is immutable after construction and safe for concurrent use by
// any number of Cluster/BestRE calls.
type Matrix struct {
	eips []uint64 // feature ID -> EIP, ascending

	// Row-major CSR: row r's nonzero features are
	// rowFeat[rowStart[r]:rowStart[r+1]] (ascending feature ID) with
	// parallel counts rowCnt.
	rowStart []int32
	rowFeat  []int32
	rowCnt   []int32

	// norms caches each row's squared L2 norm, accumulated over the row's
	// features in ascending feature-ID order.
	norms []float64
}

// IndexVectors converts sparse map-backed vectors into the dense indexed
// form. Entries with a zero or negative count carry no samples and are
// dropped (equivalent to absent). Counts must fit in an int32.
func IndexVectors(vectors []Vector) *Matrix {
	m := &Matrix{rowStart: make([]int32, len(vectors)+1)}

	// Pass 1: the dense feature space, ascending so that dense-ID order
	// is ascending-EIP order — the same canonical ordering
	// rtree.IndexDataset uses.
	nnz := 0
	for _, v := range vectors {
		for e, c := range v {
			if c <= 0 {
				continue
			}
			if c > math.MaxInt32 {
				panic(fmt.Sprintf("kmeans: count %d for EIP %#x overflows the indexed representation", c, e))
			}
			m.eips = append(m.eips, e)
			nnz++
		}
	}
	slices.Sort(m.eips)
	m.eips = slices.Compact(m.eips)
	id := make(map[uint64]int32, len(m.eips))
	for f, e := range m.eips {
		id[e] = int32(f)
	}

	// Pass 2: row-major CSR, each row's (feature, count) pairs sorted by
	// feature ID via packed uint64 keys (feature IDs are unique per row).
	m.rowFeat = make([]int32, 0, nnz)
	m.rowCnt = make([]int32, 0, nnz)
	var keys []uint64
	for i, v := range vectors {
		keys = keys[:0]
		for e, c := range v {
			if c <= 0 {
				continue
			}
			keys = append(keys, uint64(id[e])<<32|uint64(uint32(c)))
		}
		slices.Sort(keys)
		for _, k := range keys {
			m.rowFeat = append(m.rowFeat, int32(k>>32))
			m.rowCnt = append(m.rowCnt, int32(uint32(k)))
		}
		m.rowStart[i+1] = int32(len(m.rowFeat))
	}

	m.initNorms()
	return m
}

// FromCSR wraps an existing row-major CSR triplet zero-copy — the bridge
// that lets the analysis pipeline share one indexed dataset between the
// regression-tree kernel (rtree.Matrix.RowCSR) and the clustering kernel
// instead of re-indexing the map vectors. eips is the dense-ID -> EIP
// mapping (ascending); rows must list features in ascending-ID order with
// positive counts. The caller must not mutate the slices afterwards.
func FromCSR(eips []uint64, rowStart, rowFeat, rowCnt []int32) *Matrix {
	m := &Matrix{eips: eips, rowStart: rowStart, rowFeat: rowFeat, rowCnt: rowCnt}
	m.initNorms()
	return m
}

// initNorms caches per-row squared norms (features ascending).
func (m *Matrix) initNorms() {
	m.norms = make([]float64, m.NumRows())
	for r := range m.norms {
		s := 0.0
		for k := m.rowStart[r]; k < m.rowStart[r+1]; k++ {
			c := float64(m.rowCnt[k])
			s += c * c
		}
		m.norms[r] = s
	}
}

// NumRows returns the number of vectors.
func (m *Matrix) NumRows() int { return len(m.rowStart) - 1 }

// NumFeatures returns the number of distinct EIPs (dense feature IDs).
func (m *Matrix) NumFeatures() int { return len(m.eips) }

// EIPs returns the dense-ID -> EIP mapping (ascending; do not mutate).
func (m *Matrix) EIPs() []uint64 { return m.eips }

// Norm2 returns row r's squared L2 norm.
func (m *Matrix) Norm2(r int) float64 { return m.norms[r] }

// Row returns row r's nonzero features (ascending feature ID) and their
// parallel counts. The returned slices are views; do not mutate.
func (m *Matrix) Row(r int) (feat, cnt []int32) {
	lo, hi := m.rowStart[r], m.rowStart[r+1]
	return m.rowFeat[lo:hi], m.rowCnt[lo:hi]
}

// dist2 returns the squared Euclidean distance between row r and the
// dense vector whose feature f is v[f*stride+off] and whose squared norm
// is vn2, computed sparsely as |r|² − 2·r·v + |v|² with the dot product
// walking the row's features in ascending-ID order, clamped at zero.
func (m *Matrix) dist2(r int, v []float64, stride, off int, vn2 float64) float64 {
	dot := 0.0
	feat, cnt := m.Row(r)
	for j, f := range feat {
		dot += float64(cnt[j]) * v[int(f)*stride+off]
	}
	return max(m.norms[r]-2*dot+vn2, 0)
}

// seedRows returns the rows k-means++ picks as the k initial centres. A
// centre is a single row, so its mean is the row's counts and its squared
// norm is the row's cached norm. Each pick depends only on the picks
// before it (through minD) and on the same xrand draws, so the seeding
// for k centres is a prefix of the seeding for any larger k: a k sweep
// seeds once, at its largest k.
func (m *Matrix) seedRows(k int, seed uint64) []int {
	n := m.NumRows()
	rng := xrand.New(seed ^ 0x4b3a)
	seeds := append(make([]int, 0, k), rng.Intn(n))
	center := make([]float64, m.NumFeatures()) // the newest centre, dense
	minD := make([]float64, n)
	for i := range minD {
		minD[i] = math.Inf(1)
	}
	for len(seeds) < k {
		last := seeds[len(seeds)-1]
		feat, cnt := m.Row(last)
		for j, f := range feat {
			center[f] = float64(cnt[j])
		}
		for i := range minD {
			minD[i] = min(minD[i], m.dist2(i, center, 1, 0, m.norms[last]))
		}
		for _, f := range feat {
			center[f] = 0
		}

		total := 0.0
		for _, d := range minD {
			total += d
		}
		pick := n - 1
		if total <= 0 {
			pick = rng.Intn(n)
		} else {
			r := rng.Float64() * total
			acc := 0.0
			for i, d := range minD {
				acc += d
				if acc >= r {
					pick = i
					break
				}
			}
		}
		seeds = append(seeds, pick)
	}
	return seeds
}

// slab is lloyd's working memory, reusable across calls with any k.
type slab struct {
	// mean is feature-major: feature f of cluster c is mean[f*k+c], so one
	// pass over a row's features scores it against every centroid.
	mean  []float64
	n     []int
	inv   []float64 // 1/n per cluster
	norm2 []float64 // |mean|² per cluster, as the assignment pass sees it
	fresh []float64 // |mean|² of this pass's means, published into norm2
	dots  []float64 // one row's dot product with every centroid
}

// reset sizes the slab for k clusters over nf features, all zero.
func (s *slab) reset(k, nf int) {
	s.mean = zeroed(s.mean, k*nf)
	s.n = zeroed(s.n, k)
	s.inv = zeroed(s.inv, k)
	s.norm2 = zeroed(s.norm2, k)
	s.fresh = zeroed(s.fresh, k)
	s.dots = zeroed(s.dots, k)
}

// zeroed returns b resized to n zero elements, reusing its backing array
// when it is large enough.
func zeroed[T int | float64](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	b = b[:n]
	clear(b)
	return b
}

// lloyd runs Lloyd iterations from the given seed rows, one cluster per
// seed. The accumulation orders reproduce the reference oracle
// (reference_test.go) bit-for-bit: a row's dot product with each centroid
// walks the row's features ascending; each centroid's sums walk the rows
// ascending; each |mean|² walks the features ascending. Absent features
// contribute +0.0, which float64 addition leaves bit-unchanged, so zero
// sums are skipped.
func (m *Matrix) lloyd(seeds []int, maxIter int, s *slab) *Result {
	n, k, nf := m.NumRows(), len(seeds), m.NumFeatures()
	s.reset(k, nf)
	mean := s.mean
	setRow := func(c, r int) {
		feat, cnt := m.Row(r)
		for j, f := range feat {
			mean[int(f)*k+c] = float64(cnt[j])
		}
		s.n[c] = 1
	}
	for c, r := range seeds {
		setRow(c, r)
		s.norm2[c] = m.norms[r]
	}

	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	res := &Result{K: k, Assign: assign}
	dots := s.dots
	for iter := 0; iter < maxIter; iter++ {
		res.Iterations = iter + 1
		changed := false
		for i := 0; i < n; i++ {
			clear(dots)
			feat, cnt := m.Row(i)
			for j, f := range feat {
				x := float64(cnt[j])
				col := mean[int(f)*k:][:len(dots)]
				for c := range dots {
					dots[c] += x * col[c]
				}
			}
			best, bestD := 0, math.Inf(1)
			for c, dot := range dots {
				if d := max(m.norms[i]-2*dot+s.norm2[c], 0); d < bestD {
					best, bestD = c, d
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
		// Recompute the sums, then turn them into means in place; the same
		// pass collects each fresh |mean|², which, like the reference's,
		// multiplies by 1/n where the mean divides by n.
		clear(mean)
		clear(s.n)
		for i := 0; i < n; i++ {
			c := assign[i]
			s.n[c]++
			feat, cnt := m.Row(i)
			for j, f := range feat {
				mean[int(f)*k+c] += float64(cnt[j])
			}
		}
		for c, cn := range s.n {
			s.inv[c] = 1 / float64(cn)
			s.fresh[c] = 0
		}
		for f := 0; f < nf; f++ {
			col := mean[f*k : f*k+k]
			for c, sum := range col {
				if sum == 0 {
					continue
				}
				col[c] = sum / float64(s.n[c])
				mv := sum * s.inv[c]
				s.fresh[c] += mv * mv
			}
		}
		for c := 0; c < k; c++ {
			if s.n[c] == 0 {
				// Re-seed an empty cluster on the farthest point. Like the
				// original kernel, the search sees every cluster's fresh
				// mean but |mean|² caches that are only refreshed for
				// clusters below c — a quirk, but part of the pinned
				// semantics.
				far, farD := 0, -1.0
				for i := 0; i < n; i++ {
					if d := m.dist2(i, mean, k, assign[i], s.norm2[assign[i]]); d > farD {
						far, farD = i, d
					}
				}
				setRow(c, far)
				s.fresh[c] = m.norms[far]
				assign[far] = c
			}
			s.norm2[c] = s.fresh[c]
		}
	}
	res.Sizes = make([]int, k)
	for _, a := range assign {
		res.Sizes[a]++
	}
	return res
}

// Cluster partitions the matrix's rows into k clusters with k-means++
// seeding and Lloyd iterations, deterministic under the explicit seed. It
// returns an error if k is not in [1, NumRows]. The random draw sequence,
// tie-breaks and floating-point accumulation orders reproduce the
// reference oracle (reference_test.go) bit-for-bit.
func (m *Matrix) Cluster(k int, seed uint64, maxIter int) (*Result, error) {
	if n := m.NumRows(); k < 1 || k > n {
		return nil, fmt.Errorf("kmeans: k=%d outside [1, %d]", k, n)
	}
	if maxIter < 1 {
		maxIter = 50
	}
	return m.lloyd(m.seedRows(k, seed), maxIter, &slab{}), nil
}

// grid is the k sweep of BestRE: dense for small k — where the curve
// moves — and sparse beyond 10, bounding the sweep's cost.
var grid = []int{1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16, 20, 26, 32, 40, 50}

// BestRE sweeps k over the graded grid up to maxK and returns the minimum
// PredictRE and its k (the paper picks each algorithm's best k <= 50
// independently, §4.6). It is BestREParallel on one worker.
func (m *Matrix) BestRE(ys []float64, maxK int, seed uint64) (float64, int, error) {
	return m.BestREParallel(ys, maxK, seed, 1)
}

// BestREParallel is BestRE with the grid points spread over up to workers
// goroutines. Every grid point starts from a prefix of one shared
// k-means++ seeding, points are handed out largest k first (the slowest
// first, so the tail is short), and the minimum is taken in grid order
// with strict <, so the result is bit-identical at any worker count.
func (m *Matrix) BestREParallel(ys []float64, maxK int, seed uint64, workers int) (float64, int, error) {
	if len(ys) != m.NumRows() {
		return 0, 0, fmt.Errorf("kmeans: %d responses for %d rows", len(ys), m.NumRows())
	}
	maxK = min(maxK, m.NumRows())
	ks := grid
	for len(ks) > 0 && ks[len(ks)-1] > maxK {
		ks = ks[:len(ks)-1]
	}
	if len(ks) == 0 {
		return math.Inf(1), 1, nil
	}
	seeds := m.seedRows(ks[len(ks)-1], seed)
	res := make([]float64, len(ks))
	slabs := make([]slab, min(max(workers, 1), len(ks)))
	par.For(len(slabs), len(ks), func(w, j int) {
		i := len(ks) - 1 - j // largest k first
		res[i] = PredictRE(m.lloyd(seeds[:ks[i]], 40, &slabs[w]), ys)
	})
	bestRE, bestK := math.Inf(1), 1
	for i, re := range res {
		if re < bestRE {
			bestRE, bestK = re, ks[i]
		}
	}
	return bestRE, bestK, nil
}
