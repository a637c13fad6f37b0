// Package rtree implements the paper's central analysis tool (§4): binary
// regression trees over EIP vectors that quantify the theoretical upper
// bound on predicting CPI from EIPs alone.
//
// A tree recursively splits the set of EIPVs on questions of the form
// "was EIP e sampled at most n times in this interval?", always choosing
// the (EIP, n) pair that minimizes the weighted sum of CPI variances of
// the two sides (§4.1). Growth is best-first: the next split is always the
// one with the largest achievable variance reduction anywhere in the tree,
// which yields the nested family T_1 ⊂ T_2 ⊂ … ⊂ T_K in a single pass, so
// the k-chamber tree for every k ≤ K falls out of one build (§4.3).
//
// Input arrives in one of two row forms, and there is no map form:
// rank rows into an ascending EIP table (a Dataset, indexed by
// IndexDataset with no sort and no search), or rows of raw EIPs (or
// block PCs) indexed by IndexRows, which ranks them by hash and sorts
// only the distinct ones. Each row lists its entries in
// ascending order with parallel counts. The split-search kernel is
// columnar: a Matrix remaps the sparse uint64 EIP space to dense int32
// feature IDs, presorts each feature's (row, count) column once and
// leaves exact duplicate columns out of that index. Growth partitions a
// row-membership array in place, and every node scans only the features
// present among its members, each segment carrying its cached zero-side
// sums, and skips every feature whose O(1) gain bound proves it cannot
// reach a split already found. A split moves only its smaller side's
// entries; the larger child keeps the parent's columns in place.
// There are no per-node maps, sorts, or steady-state allocations (scratch
// comes from a sync.Pool).
// reference_test.go retains the original map-based kernel, over a
// test-local map form, as the oracle the equivalence tests compare
// against.
//
// CrossValidate implements the 10-fold procedure of §4.4 and returns the
// relative error curve RE_k; 1−RE is the fraction of CPI variance EIPs can
// explain.
package rtree

import (
	"context"
	"fmt"
	"math"

	"repro/internal/par"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// Options tunes tree growth.
type Options struct {
	// MaxLeaves caps the number of chambers (the paper uses 50, §4.3).
	MaxLeaves int
	// MinLeaf is the minimum number of points per chamber.
	MinLeaf int
	// Parallelism bounds the worker goroutines CrossValidate evaluates
	// its folds on; <= 1 means serial. Every RE value is bit-for-bit
	// identical at any setting: fold errors are reduced in fold order
	// regardless of completion order. Build always grows its one tree
	// serially.
	Parallelism int
}

// DefaultOptions mirrors the paper's settings.
func DefaultOptions() Options { return Options{MaxLeaves: 50, MinLeaf: 2} }

// Split describes one internal node's question: count(EIP) <= N goes left.
type Split struct {
	EIP uint64
	N   int
	// Order is the split's position in the best-first growth sequence;
	// the k-chamber tree consists of the splits with Order < k-1.
	Order int
	// Gain is the variance-reduction (sum-of-squares units) the split
	// achieved.
	Gain float64
}

// node is one tree node. Membership is a slice [lo, hi) of the builder's
// row array rather than a materialized index list; the array is
// partitioned in place as the node splits.
type node struct {
	lo, hi int32
	sum    float64
	sumsq  float64

	split       *Split
	left, right *node

	// best candidate split found for this node (pre-computed when the
	// node is created).
	bestFeat int32
	bestN    int32
	bestGain float64

	// cols holds the node's segments of the presorted feature columns
	// while the node is a frontier leaf; when the node splits, its larger
	// child takes them over, and they are recycled once a node can never
	// split.
	cols *colSet
}

func (n *node) count() int { return int(n.hi - n.lo) }

func (n *node) mean() float64 {
	if n.count() == 0 {
		return 0
	}
	return n.sum / float64(n.count())
}

// ss returns the node's within-sum-of-squares.
func (n *node) ss() float64 {
	if n.count() == 0 {
		return 0
	}
	return n.sumsq - n.sum*n.sum/float64(n.count())
}

// Tree is a grown regression tree.
type Tree struct {
	m      *Matrix
	root   *node
	splits []*node // internal nodes in growth order
}

// Leaves returns the number of chambers in the full tree.
func (t *Tree) Leaves() int { return len(t.splits) + 1 }

// Splits returns the growth-ordered split descriptions.
func (t *Tree) Splits() []Split {
	out := make([]Split, len(t.splits))
	for i, n := range t.splits {
		out[i] = *n.split
	}
	return out
}

// Build grows a tree over every row of the matrix.
func (m *Matrix) Build(opt Options) *Tree { return m.build(nil, opt) }

// build grows a tree over the given rows (nil means all rows) with
// best-first splitting. All scratch comes from a pooled builder, so
// steady-state growth does not allocate beyond the retained nodes.
func (m *Matrix) build(rows []int32, opt Options) *Tree {
	if opt.MaxLeaves < 1 {
		opt.MaxLeaves = 1
	}
	if opt.MinLeaf < 1 {
		opt.MinLeaf = 1
	}
	b := getBuilder(m, opt)
	defer putBuilder(b)

	t := &Tree{m: m}
	b.t = t
	if rows == nil {
		b.rows = b.rows[:0]
		for i := 0; i < m.NumRows(); i++ {
			b.rows = append(b.rows, int32(i))
		}
	} else {
		b.rows = append(b.rows[:0], rows...)
	}

	root := &node{lo: 0, hi: int32(len(b.rows))}
	for _, r := range b.rows {
		y := m.ys[r]
		root.sum += y
		root.sumsq += y * y
	}
	t.root = root
	b.slack = boundSlack(root.count()) * root.sumsq
	root.cols = b.rootCols()
	b.findBest(root, -1)

	b.frontier = append(b.frontier[:0], root)
	for t.Leaves() < opt.MaxLeaves {
		// Pick the leaf with the largest achievable gain.
		var best *node
		for _, n := range b.frontier {
			if n.bestGain > 1e-12 && (best == nil || n.bestGain > best.bestGain) {
				best = n
			}
		}
		if best == nil {
			break // no leaf can be improved
		}
		b.applySplit(best)
		// Replace best in the frontier with its children.
		for i, n := range b.frontier {
			if n == best {
				b.frontier[i] = b.frontier[len(b.frontier)-1]
				b.frontier = b.frontier[:len(b.frontier)-1]
				break
			}
		}
		b.frontier = append(b.frontier, best.left, best.right)
	}
	for _, n := range b.frontier {
		b.releaseCols(n)
	}
	return t
}

// PredictRowK routes row `row` of the matrix the tree was built on
// through the k-chamber subtree T_k and returns the chamber's mean CPI.
// k of 1 returns the global mean; k >= Leaves() uses the full tree.
func (t *Tree) PredictRowK(row, k int) float64 {
	n := t.root
	for n.split != nil && n.split.Order <= k-2 {
		if t.m.rowCount(int32(row), n.bestFeat) <= n.bestN {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.mean()
}

// InSampleRE returns the training-set relative error of T_k: within-SS of
// the k-chamber partition over total SS.
func (t *Tree) InSampleRE(k int) float64 {
	total := t.root.ss()
	if total <= 0 {
		return 0
	}
	var within float64
	var walk func(n *node, k int)
	walk = func(n *node, k int) {
		if n.split != nil && n.split.Order <= k-2 {
			walk(n.left, k)
			walk(n.right, k)
			return
		}
		within += n.ss()
	}
	walk(t.root, k)
	return within / total
}

// CVResult is the outcome of the §4.4 cross-validation.
type CVResult struct {
	// RE[k-1] is the relative cross-validation error of the k-chamber
	// tree, k = 1..MaxLeaves.
	RE []float64
	// KOpt is the k minimizing RE, and REOpt the minimum (the paper's
	// RE_kopt, its CPI-predictability measure).
	KOpt  int
	REOpt float64
	// REAsym approximates RE_k=∞ (the tail mean of the curve).
	REAsym float64
	// KAsym is the smallest k whose RE is within 0.5% of REAsym — the
	// paper's notion of the number of chambers needed to capture the
	// relationship (§4.4).
	KAsym int
}

// ExplainedVariance returns 1−REOpt clamped to [0,1]: the fraction of CPI
// variance EIPVs can explain (§4.5).
func (r CVResult) ExplainedVariance() float64 {
	v := 1 - r.REOpt
	if v < 0 {
		return 0
	}
	return v
}

// CrossValidateCtx runs the §4.4 fold procedure over the matrix's rows.
// With opt.Parallelism > 1 the folds are evaluated concurrently; each fold
// accumulates its squared errors independently and the per-fold partials
// are reduced in fold order, so the curve is bit-for-bit the same at any
// worker count. ctx is polled before each fold starts, and a run
// cancelled before its last fold starts returns ctx.Err() instead of a
// curve. Folds that did run are discarded — a partial curve would not be
// comparable to a full one. A nil ctx never cancels. Fewer than 2 folds
// or fewer than 1 leaf (opt.MaxLeaves) is an error.
func (m *Matrix) CrossValidateCtx(ctx context.Context, opt Options, folds int, seed uint64) (CVResult, error) {
	return crossValidate(ctx, m.ys, opt, folds, seed, func(train []int32) foldPredictor {
		return m.build(train, opt).PredictRowK
	})
}

// foldPredictor predicts the response of row `row` (an index into the full
// dataset) under the k-chamber subtree of a fold's model.
type foldPredictor func(row, k int) float64

// crossValidate is the shared fold protocol: it fixes the fold assignment
// from the seed, trains a model per fold via buildFold, and reduces the
// held-out squared errors into the RE_k curve. Both the columnar kernel
// and the reference kernel run through this one implementation, so their
// CV curves differ only if their trees differ. The folds run on
// opt.Parallelism workers through par.ForCtx, which polls ctx (may be nil)
// before each fold.
func crossValidate(ctx context.Context, ys []float64, opt Options, folds int, seed uint64,
	buildFold func(train []int32) foldPredictor) (CVResult, error) {
	if folds < 2 {
		return CVResult{}, fmt.Errorf("rtree: need at least 2 folds, got %d", folds)
	}
	if opt.MaxLeaves < 1 {
		return CVResult{}, fmt.Errorf("rtree: need at least 1 leaf, got MaxLeaves %d", opt.MaxLeaves)
	}
	if len(ys) < folds*2 {
		return CVResult{}, fmt.Errorf("rtree: dataset of %d points too small for %d folds", len(ys), folds)
	}
	totalVar := stats.Var(ys)
	if totalVar <= 0 {
		// Degenerate: constant CPI. The mean predictor is exact; report a
		// flat curve of zeros.
		re := make([]float64, opt.MaxLeaves)
		return CVResult{RE: re, KOpt: 1, REOpt: 0, REAsym: 0}, nil
	}

	// Random fold assignment.
	rng := xrand.New(seed ^ 0xcf01d)
	perm := make([]int, len(ys))
	rng.Perm(perm)

	partials := make([][]float64, folds) // per-fold summed squared errors
	err := par.ForCtx(ctx, opt.Parallelism, folds, func(_ context.Context, f int) error {
		var train, test []int32
		for i, p := range perm {
			if p%folds == f {
				test = append(test, int32(i))
			} else {
				train = append(train, int32(i))
			}
		}
		pred := buildFold(train)
		sq := make([]float64, opt.MaxLeaves)
		for _, ti := range test {
			y := ys[ti]
			for k := 1; k <= opt.MaxLeaves; k++ {
				d := y - pred(int(ti), k)
				sq[k-1] += d * d
			}
		}
		partials[f] = sq
		return nil
	})
	if err != nil {
		return CVResult{}, err
	}

	sqerr := make([]float64, opt.MaxLeaves) // summed over all held-out points
	for f := 0; f < folds; f++ {
		for k := range sqerr {
			sqerr[k] += partials[f][k]
		}
	}

	res := CVResult{RE: make([]float64, opt.MaxLeaves)}
	res.KOpt, res.REOpt = 1, math.Inf(1)
	for k := 1; k <= opt.MaxLeaves; k++ {
		re := (sqerr[k-1] / float64(len(ys))) / totalVar
		res.RE[k-1] = re
		if re < res.REOpt {
			res.REOpt = re
			res.KOpt = k
		}
	}
	// Asymptote: mean of the last quarter of the curve.
	tail := opt.MaxLeaves / 4
	if tail < 1 {
		tail = 1
	}
	var s float64
	for _, re := range res.RE[opt.MaxLeaves-tail:] {
		s += re
	}
	res.REAsym = s / float64(tail)
	res.KAsym = opt.MaxLeaves
	for k := 1; k <= opt.MaxLeaves; k++ {
		if res.RE[k-1] <= res.REAsym*1.005 {
			res.KAsym = k
			break
		}
	}
	return res, nil
}
