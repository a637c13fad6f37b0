package kmeans

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/par"
	"repro/internal/xrand"
)

// Matrix is the dense-feature form of EIPV rows, a view of an
// rtree.Matrix's row CSR: the sparse uint64 EIP space is remapped to
// dense int32 feature IDs (ascending-EIP order) and the nonzero
// observations are stored as row-major CSR — row r's (feature, count)
// pairs in ascending feature-ID order. Per-row squared norms are
// cached at construction.
//
// Every floating-point accumulation in the clustering kernels walks this
// layout in a fixed, documented order (within a row, features ascending;
// a centroid's |mean|² over its features ascending), so results are
// bit-identical across runs, map-hash seeds and Parallelism settings —
// the property the map-backed kernel lacked. The reference oracle
// (reference_test.go) pins the semantics. Counts are integers, so on
// matrices of at most maxGramRows rows the kernels first decide from
// exact integer dot products, through the Gram matrix of row dot
// products, and run the float arithmetic only where it could decide
// otherwise.
//
// A Matrix is immutable after construction, apart from its Gram matrix,
// which the first clustering builds once; it is safe for concurrent use
// by any number of Cluster/BestRE calls.
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

	// gram is G = X·Xᵀ, built on first use (see gramMatrix).
	gramOnce sync.Once
	gram     []int64
}

// FromCSR wraps an existing row-major CSR triplet zero-copy — the only
// constructor: the analysis pipeline shares one indexed dataset between
// the regression-tree kernel (rtree.Matrix.RowCSR) and the clustering
// kernel. eips is the dense-ID -> EIP mapping (ascending); rows must list
// features in ascending-ID order with positive counts. The caller must
// not mutate the slices afterwards.
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

// Row returns row r's nonzero features (ascending feature ID) and their
// parallel counts. The returned slices are views; do not mutate.
func (m *Matrix) Row(r int) (feat, cnt []int32) {
	lo, hi := m.rowStart[r], m.rowStart[r+1]
	return m.rowFeat[lo:hi], m.rowCnt[lo:hi]
}

// maxGramRows bounds the matrices that get a Gram matrix. G takes 8n²
// bytes, 8 MiB at this bound. With every squared row norm below 2⁵³, each
// entry of G is below 2⁵³, so an entry of lloyd's exact dot table, a sum
// over at most n distinct rows, stays below 2⁶³.
const maxGramRows = 1024

// exact reports whether the matrix gets a Gram matrix: at most
// maxGramRows rows, each with a squared norm below 2⁵³. A float norm is
// exact below 2⁵³ and rounds to at least 2⁵³ above it, so the test is
// exact too.
func (m *Matrix) exact() bool {
	return m.NumRows() <= maxGramRows && !slices.ContainsFunc(m.norms, func(v float64) bool { return v >= 1<<53 })
}

// GramBytes returns the memory the matrix's Gram matrix takes once a
// clustering has built it: 8 bytes per pair of rows, or 0 for a matrix
// that clusters on the float path alone.
func (m *Matrix) GramBytes() int64 {
	if !m.exact() {
		return 0
	}
	n := int64(m.NumRows())
	return 8 * n * n
}

// gramMatrix returns G = X·Xᵀ, row-major n×n, building it on first use;
// it returns nil when the matrix is not exact. G's entries equal the
// float dot products of two rows: by Cauchy–Schwarz every product of two
// counts and every partial sum of a row-row dot product is an integer
// below 2⁵³, so the float accumulation is exact.
func (m *Matrix) gramMatrix() []int64 {
	m.gramOnce.Do(func() {
		if !m.exact() {
			return
		}
		// The column view: each feature's rows, ascending, and counts.
		n, nf := m.NumRows(), m.NumFeatures()
		colStart := make([]int32, nf+1)
		for _, f := range m.rowFeat {
			colStart[f+1]++
		}
		for f := 0; f < nf; f++ {
			colStart[f+1] += colStart[f]
		}
		next := slices.Clone(colStart[:nf])
		colRow := make([]int32, len(m.rowFeat))
		colCnt := make([]int64, len(m.rowFeat))
		for r := 0; r < n; r++ {
			feat, cnt := m.Row(r)
			for j, f := range feat {
				colRow[next[f]], colCnt[next[f]] = int32(r), int64(cnt[j])
				next[f]++
			}
		}
		// Each column adds its pairs' products to the upper triangle,
		// which the lower one then mirrors: Σ_f n_f²/2 multiply-adds for
		// n_f rows holding feature f.
		g := make([]int64, n*n)
		for f := 0; f < nf; f++ {
			rows, cnts := colRow[colStart[f]:colStart[f+1]], colCnt[colStart[f]:colStart[f+1]]
			for a, ra := range rows {
				ca, line := cnts[a], g[int(ra)*n:]
				for b := a; b < len(rows); b++ {
					line[rows[b]] += ca * cnts[b]
				}
			}
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				g[j*n+i] = g[i*n+j]
			}
		}
		m.gram = g
	})
	return m.gram
}

// dist2 returns the squared Euclidean distance between row r and the
// dense vector sum/n, feature f at sum[f]/n, whose squared norm is vn2,
// computed sparsely as |r|² − 2·r·v + |v|² with the dot product walking
// the row's features in ascending-ID order, clamped at zero.
func (m *Matrix) dist2(r int, sum []float64, n, vn2 float64) float64 {
	dot := 0.0
	feat, cnt := m.Row(r)
	for j, f := range feat {
		dot += float64(cnt[j]) * (sum[f] / n)
	}
	return max(m.norms[r]-2*dot+vn2, 0)
}

// seedRows returns the rows k-means++ picks as the k initial centres. A
// centre is a single row, so its mean is the row's counts and its squared
// norm is the row's cached norm. Each pick depends only on the picks
// before it (through minD) and on the same xrand draws, so the seeding
// for k centres is a prefix of the seeding for any larger k: a k sweep
// seeds once, at its largest k.
//
// On an exact matrix the dot product with a centre row is a Gram entry,
// the very value dist2's float accumulation reaches, so each pick costs
// O(n) and the distances are bit-identical.
func (m *Matrix) seedRows(k int, seed uint64) []int {
	n := m.NumRows()
	rng := xrand.New(seed ^ 0x4b3a)
	seeds := append(make([]int, 0, k), rng.Intn(n))
	g := m.gramMatrix()
	var center []float64 // the newest centre, dense, on the float path
	if g == nil {
		center = make([]float64, m.NumFeatures())
	}
	minD := make([]float64, n)
	for i := range minD {
		minD[i] = math.Inf(1)
	}
	for len(seeds) < k {
		last := seeds[len(seeds)-1]
		if g != nil {
			line := g[last*n : (last+1)*n]
			for i := range minD {
				minD[i] = min(minD[i], max(m.norms[i]-2*float64(line[i])+m.norms[last], 0))
			}
		} else {
			feat, cnt := m.Row(last)
			for j, f := range feat {
				center[f] = float64(cnt[j])
			}
			for i := range minD {
				minD[i] = min(minD[i], m.dist2(i, center, 1, m.norms[last]))
			}
			for _, f := range feat {
				center[f] = 0
			}
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
//
// Each cluster's mean is the mean of a set of rows: the rows assigned to
// it at the last update (member), plus its seed or re-seed row (extra).
// A re-seed row stays in its old cluster's set too, as in the reference.
// The sets change one row at a time (shift), and so do their sums, which
// are exact integers: counts below 2³¹ summed over fewer than 2²² rows.
type slab struct {
	// sum is cluster-major: feature f of cluster c's sum is sum[c*nf+f],
	// and the mean is sum/n, divided where it is read. The set bits of
	// c's line in present are the features whose sum is nonzero, so one
	// cluster's |mean|² is taken without a pass over every feature.
	sum     []float64
	present []uint64
	n       []int     // the size of each cluster's row set
	member  []int     // row -> the cluster whose set holds it, -1 for none
	extra   []int     // cluster -> its seed or re-seed row, -1 for none
	dirty   []bool    // the cluster's row set changed since fresh was taken
	norm2   []float64 // |mean|² per cluster, as the assignment pass sees it
	fresh   []float64 // |mean|² of this pass's means, published into norm2
	// dot[c*n+i] is xᵢ·S_c exactly, where S_c is cluster c's sum; it is
	// kept only on an exact matrix.
	dot  []int64
	lo   []float64 // one row's lower distance bounds, per cluster
	cand []int     // one row's candidate clusters
}

// reset sizes the slab for k clusters over n rows and nf features, with
// every cluster's row set empty. The sums need no clearing: a new slab's
// are zero, and lloyd zeroes the ones it leaves behind.
func (s *slab) reset(k, n, nf int, exact bool) {
	if cap(s.sum) < k*nf {
		s.sum = make([]float64, k*nf)
	}
	s.sum = s.sum[:k*nf]
	s.present = zeroed(s.present, k*((nf+63)/64))
	s.n = zeroed(s.n, k)
	s.member = zeroed(s.member, n)
	s.extra = zeroed(s.extra, k)
	for i := range s.member {
		s.member[i] = -1
	}
	for c := range s.extra {
		s.extra[c] = -1
	}
	s.dirty = zeroed(s.dirty, k)
	s.norm2 = zeroed(s.norm2, k)
	s.fresh = zeroed(s.fresh, k)
	s.lo = zeroed(s.lo, k)
	s.cand = zeroed(s.cand, k)
	if exact {
		s.dot = zeroed(s.dot, n*k)
	}
}

// zeroed returns b resized to n zero elements, reusing its backing array
// when it is large enough.
func zeroed[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	b = b[:n]
	clear(b)
	return b
}

// shift adds (sign 1) or removes (sign -1) row r to or from cluster c's
// row set, keeping c's sum, its present bits and the exact dot table (one
// line of G) in step.
func (s *slab) shift(m *Matrix, g []int64, c, r int, sign int64) {
	s.n[c] += int(sign)
	s.dirty[c] = true
	nf := m.NumFeatures()
	sum, present := s.sum[c*nf:(c+1)*nf], s.present[c*((nf+63)/64):]
	feat, cnt := m.Row(r)
	for j, f := range feat {
		v := sum[f] + float64(sign*int64(cnt[j]))
		sum[f] = v
		if v == 0 {
			present[f>>6] &^= 1 << (f & 63)
		} else {
			present[f>>6] |= 1 << (f & 63)
		}
	}
	if g == nil {
		return
	}
	n := len(s.member)
	dot := s.dot[c*n : (c+1)*n]
	for i, v := range g[r*n : (r+1)*n] {
		dot[i] += sign * v
	}
}

// dist2 is the reference's float distance from row i to cluster c's
// mean, with |mean|² taken from norm2.
func (s *slab) dist2(m *Matrix, i, c int) float64 {
	nf := m.NumFeatures()
	return m.dist2(i, s.sum[c*nf:(c+1)*nf], float64(s.n[c]), s.norm2[c])
}

// lloyd runs Lloyd iterations from the given seed rows, one cluster per
// seed, and reproduces the reference oracle (reference_test.go)
// bit-for-bit: every assignment is the reference's (see nearest), and
// so is every mean and |mean|² (see update).
func (m *Matrix) lloyd(seeds []int, maxIter int, s *slab) *Result {
	n, k := m.NumRows(), len(seeds)
	g := m.gramMatrix()
	s.reset(k, n, m.NumFeatures(), g != nil)
	for c, r := range seeds {
		s.shift(m, g, c, r, 1)
		s.extra[c] = r
		s.norm2[c] = m.norms[r]
	}

	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	res := &Result{K: k, Assign: assign}
	for iter := 0; iter < maxIter; iter++ {
		res.Iterations = iter + 1
		changed := false
		for i := 0; i < n; i++ {
			if best := s.nearest(m, g, i); assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed {
			break
		}
		s.update(m, g, assign)
	}
	res.Sizes = make([]int, k)
	for _, a := range assign {
		res.Sizes[a]++
	}
	s.clearSums(m.NumFeatures())
	return res
}

// clearSums zeroes every cluster's sum, visiting only the features its
// present bits mark.
func (s *slab) clearSums(nf int) {
	nw := (nf + 63) / 64
	for c := 0; c < len(s.n); c++ {
		sum := s.sum[c*nf : (c+1)*nf]
		for w, word := range s.present[c*nw : (c+1)*nw] {
			for ; word != 0; word &= word - 1 {
				sum[w<<6+bits.TrailingZeros64(word)] = 0
			}
		}
	}
}

// nearest returns the cluster the reference assigns row i to: the first
// cluster at the least float distance max(|xᵢ|² − 2·xᵢ·μ_c + |μ_c|², 0),
// with the dot product walking the row's features ascending. When one
// candidate is left it is the answer; otherwise the candidates are scored
// with that float dot product, in ascending cluster order.
func (s *slab) nearest(m *Matrix, g []int64, i int) int {
	cand := s.candidates(m, g, i)
	if len(cand) == 1 {
		return cand[0]
	}
	best, bestD := 0, math.Inf(1)
	for _, c := range cand {
		if d := s.dist2(m, i, c); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// candidates returns, ascending, the clusters that can hold row i's
// least float distance: all of them, unless the matrix is exact.
//
// On an exact matrix each cluster's float distance is bounded around the
// exact one. The exact xᵢ·μ_c is A/n_c, with A from the dot table. Every
// term of the float dot product is nonnegative, so it differs from A/n_c
// by at most (Fᵢ+1)·2⁻⁵³·A/n_c for a row of Fᵢ features: one rounding for
// the mean, one for each product, Fᵢ−1 for the sum. The float
// subtraction and addition, and this estimate's own arithmetic, add a few
// ulps of |xᵢ|², A/n_c and |μ_c|². A cluster whose lower bound exceeds
// the least upper bound cannot hold the minimum.
func (s *slab) candidates(m *Matrix, g []int64, i int) []int {
	k := len(s.n)
	cand := s.cand[:0]
	if g == nil {
		for c := 0; c < k; c++ {
			cand = append(cand, c)
		}
		return cand
	}
	xn := m.norms[i]
	w := float64(m.rowStart[i+1]-m.rowStart[i]) + 8
	n, lo := len(s.member), s.lo[:k]
	hiMin := math.Inf(1)
	for c := range lo {
		dot := float64(s.dot[c*n+i]) / float64(s.n[c])
		d := xn - 2*dot + s.norm2[c]
		e := 0x1p-52 * (w*dot + 3*xn + 2*s.norm2[c])
		lo[c] = max(d-e, 0)
		hiMin = min(hiMin, max(d+e, 0))
	}
	for c, l := range lo {
		if l <= hiMin {
			cand = append(cand, c)
		}
	}
	return cand
}

// update moves the clusters' row sets to the new assignment, then
// re-seeds empty clusters and publishes the fresh |μ|², as the reference
// does after every pass that changed an assignment. The fresh |μ|² is
// retaken only for the clusters whose row set changed: a cluster over the
// same rows has bit-identical sums and means. Like the reference's, it
// multiplies the sums by 1/n and walks the features ascending.
func (s *slab) update(m *Matrix, g []int64, assign []int) {
	k, nf := len(s.n), m.NumFeatures()
	nw := (nf + 63) / 64
	for c, r := range s.extra {
		if r >= 0 {
			s.shift(m, g, c, r, -1)
			s.extra[c] = -1
		}
	}
	for i, c := range assign {
		if p := s.member[i]; p != c {
			if p >= 0 {
				s.shift(m, g, p, i, -1)
			}
			s.shift(m, g, c, i, 1)
			s.member[i] = c
		}
	}
	for c := 0; c < k; c++ {
		if !s.dirty[c] {
			continue
		}
		s.dirty[c] = false
		inv, sum, fresh := 1/float64(s.n[c]), s.sum[c*nf:(c+1)*nf], 0.0
		for w, word := range s.present[c*nw : (c+1)*nw] {
			for ; word != 0; word &= word - 1 {
				mv := sum[w<<6+bits.TrailingZeros64(word)] * inv
				fresh += mv * mv
			}
		}
		s.fresh[c] = fresh
	}

	for c := 0; c < k; c++ {
		if s.n[c] == 0 {
			// Re-seed an empty cluster on the farthest point. Like the
			// original kernel, the search sees every cluster's fresh
			// mean but |mean|² caches that are only refreshed for
			// clusters below c — a quirk, but part of the pinned
			// semantics.
			far, farD := 0, -1.0
			for i, a := range assign {
				if d := s.dist2(m, i, a); d > farD {
					far, farD = i, d
				}
			}
			s.shift(m, g, c, far, 1)
			s.extra[c] = far
			s.fresh[c] = m.norms[far]
			assign[far] = c
		}
		s.norm2[c] = s.fresh[c]
	}
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
// independently, §4.6). It is a Sweep run on the calling goroutine.
func (m *Matrix) BestRE(ys []float64, maxK int, seed uint64) (float64, int, error) {
	sw, err := m.Sweep(ys, maxK, seed, 1)
	if err != nil {
		return 0, 0, err
	}
	par.For(1, sw.Len(), sw.Run)
	re, k := sw.Best()
	return re, k, nil
}

// Sweep is BestRE's k sweep as a list of independent tasks, so a caller
// can run them on a pool it shares with other work: Run(w, j) for every
// j in [0, Len()), from at most the given number of workers, then Best.
// Every grid point starts from a prefix of one shared k-means++ seeding,
// which the first task to run takes; tasks hand out the largest k first
// (the slowest first, so the tail is short); and Best takes the minimum
// in grid order with strict <, so the result is bit-identical at any
// worker count and in any completion order.
type Sweep struct {
	m     *Matrix
	ys    []float64
	ks    []int
	seed  uint64
	once  sync.Once
	seeds []int
	res   []float64 // PredictRE per grid point, in grid order
	slabs []slab    // one per worker
}

// Sweep prepares the k sweep up to maxK for up to workers concurrent
// Run callers. It returns an error if ys does not match the rows.
func (m *Matrix) Sweep(ys []float64, maxK int, seed uint64, workers int) (*Sweep, error) {
	if len(ys) != m.NumRows() {
		return nil, fmt.Errorf("kmeans: %d responses for %d rows", len(ys), m.NumRows())
	}
	maxK = min(maxK, m.NumRows())
	ks := grid
	for len(ks) > 0 && ks[len(ks)-1] > maxK {
		ks = ks[:len(ks)-1]
	}
	return &Sweep{
		m: m, ys: ys, ks: ks, seed: seed,
		res:   make([]float64, len(ks)),
		slabs: make([]slab, max(workers, 1)),
	}, nil
}

// Len is the number of grid points, one task each.
func (s *Sweep) Len() int { return len(s.ks) }

// Run clusters task j's grid point on worker w's slab. Calls with
// distinct j may run concurrently, at most one per w at a time.
func (s *Sweep) Run(w, j int) {
	s.once.Do(func() { s.seeds = s.m.seedRows(s.ks[len(s.ks)-1], s.seed) })
	i := len(s.ks) - 1 - j // largest k first
	s.res[i] = PredictRE(s.m.lloyd(s.seeds[:s.ks[i]], 40, &s.slabs[w]), s.ys)
}

// Best returns the minimum PredictRE over the grid and its k, or (+Inf,
// 1) for an empty grid. Every task must have run.
func (s *Sweep) Best() (float64, int) {
	bestRE, bestK := math.Inf(1), 1
	for i, re := range s.res {
		if re < bestRE {
			bestRE, bestK = re, s.ks[i]
		}
	}
	return bestRE, bestK
}
