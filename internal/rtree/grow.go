package rtree

import (
	"sync"

	"repro/internal/par"
)

// This file is the columnar growth kernel. A builder carries every piece
// of scratch the best-first loop needs — the row-membership array that is
// partitioned in place, the per-node column slices, side flags, and the
// parallel-scoring buffers — and builders are pooled, so after warmup a
// Build allocates only the nodes the finished tree retains.
//
// Invariants the kernel preserves (and the equivalence tests lock in):
//
//   - A node's members b.rows[lo:hi] are in ascending dataset-row order:
//     the root starts ascending and splits partition stably.
//   - A node's column slice for feature f holds exactly its members'
//     nonzero (row, count) pairs in (count, row) order: the matrix's
//     columns start in that order and splits partition them stably, so no
//     node ever sorts anything.
//   - Features are scanned in ascending dense-ID order == ascending-EIP
//     order with a strict > gain comparison, so ties break toward the
//     lowest EIP and then the lowest threshold, exactly like the
//     reference kernel.
//   - Every floating-point accumulation (node sums, zero-side aggregates,
//     threshold prefix sums) visits values in the same order as the
//     reference kernel, so gains — and therefore whole trees — are
//     bit-for-bit identical.

// colSet holds one node's slices of the presorted feature columns:
// feature f's (row, count) pairs are row[start[f]:start[f+1]] and
// cnt[start[f]:start[f+1]], in (count, row) order.
type colSet struct {
	start []int32
	row   []int32
	cnt   []int32
}

// parallelFeatureMin is the feature count below which findBest stays
// serial: per-feature work is too small to amortize goroutine fan-out.
const parallelFeatureMin = 128

// builder is the pooled scratch state for one Build call.
type builder struct {
	m   *Matrix
	opt Options
	t   *Tree

	// rows is the membership array; each node owns [lo, hi).
	rows []int32
	// tmp stages a split's right side during the stable partition.
	tmp []int32
	// flag is indexed by dataset row: it marks the train subset while the
	// root columns are gathered, then marks the right side during each
	// split. It is always all-false between uses.
	flag []bool

	// Parallel split-search buffers.
	present []int32
	gains   []float64
	thrs    []int32

	frontier []*node
	free     []*colSet // recycled column sets
}

var builderPool = sync.Pool{New: func() any { return &builder{} }}

func getBuilder(m *Matrix, opt Options) *builder {
	b := builderPool.Get().(*builder)
	b.m = m
	b.opt = opt
	if n := m.NumRows(); cap(b.flag) < n {
		b.flag = make([]bool, n)
	} else {
		b.flag = b.flag[:n]
	}
	if F := m.NumFeatures(); cap(b.gains) < F {
		b.gains = make([]float64, F)
		b.thrs = make([]int32, F)
		b.present = make([]int32, 0, F)
	}
	return b
}

func putBuilder(b *builder) {
	b.m = nil
	b.t = nil
	b.frontier = b.frontier[:0]
	builderPool.Put(b)
}

func (b *builder) getColSet() *colSet {
	if n := len(b.free); n > 0 {
		cs := b.free[n-1]
		b.free = b.free[:n-1]
		cs.start = cs.start[:0]
		cs.row = cs.row[:0]
		cs.cnt = cs.cnt[:0]
		return cs
	}
	return &colSet{}
}

// releaseCols recycles a node's column slices once it can never split
// again (it became internal, or no admissible split exists).
func (b *builder) releaseCols(n *node) {
	if n.cols != nil {
		b.free = append(b.free, n.cols)
		n.cols = nil
	}
}

// rootCols gathers the root's column set by filtering the matrix's
// presorted columns down to the build's row subset. Filtering preserves
// order, so the result is already in (count, row) order per feature.
func (b *builder) rootCols() *colSet {
	m := b.m
	for _, r := range b.rows {
		b.flag[r] = true
	}
	cs := b.getColSet()
	cs.start = append(cs.start, 0)
	for f := 0; f < m.NumFeatures(); f++ {
		for k := m.colStart[f]; k < m.colStart[f+1]; k++ {
			if r := m.colRow[k]; b.flag[r] {
				cs.row = append(cs.row, r)
				cs.cnt = append(cs.cnt, m.colCnt[k])
			}
		}
		cs.start = append(cs.start, int32(len(cs.row)))
	}
	for _, r := range b.rows {
		b.flag[r] = false
	}
	return cs
}

// findBest computes the node's best (feature, n) split by scanning its
// members' slice of every presorted column. Candidate thresholds are the
// observed counts (including 0) except the maximum.
//
// With opt.Parallelism > 1 and enough present features, the per-feature
// scoring fans out across workers. Each feature's score is computed
// independently of every other feature (no floating-point accumulation
// crosses feature boundaries), and the reduction scans features in
// ascending-ID order with a strict > comparison, so the chosen split —
// including tie-breaks toward the lowest EIP and lowest threshold — is
// identical to the serial scan.
func (b *builder) findBest(n *node) {
	n.bestGain = 0
	if n.count() < 2*b.opt.MinLeaf {
		b.releaseCols(n)
		return
	}
	parentSS := n.ss()
	if parentSS <= 1e-12 {
		b.releaseCols(n)
		return
	}

	cs := n.cols
	F := b.m.NumFeatures()

	if b.opt.Parallelism > 1 {
		b.present = b.present[:0]
		for f := 0; f < F; f++ {
			if cs.start[f+1] > cs.start[f] {
				b.present = append(b.present, int32(f))
			}
		}
		if len(b.present) >= parallelFeatureMin {
			gains := b.gains[:len(b.present)]
			thrs := b.thrs[:len(b.present)]
			par.For(b.opt.Parallelism, len(b.present), func(_, i int) {
				f := b.present[i]
				s, e := cs.start[f], cs.start[f+1]
				gains[i], thrs[i] = b.scoreFeature(n, parentSS, cs.row[s:e], cs.cnt[s:e])
			})
			for i, f := range b.present {
				if gains[i] > n.bestGain {
					n.bestGain = gains[i]
					n.bestFeat = f
					n.bestN = thrs[i]
				}
			}
			if n.bestGain == 0 {
				b.releaseCols(n)
			}
			return
		}
	}

	for f := 0; f < F; f++ {
		s, e := cs.start[f], cs.start[f+1]
		if s == e {
			continue
		}
		gain, thr := b.scoreFeature(n, parentSS, cs.row[s:e], cs.cnt[s:e])
		if gain > n.bestGain {
			n.bestGain = gain
			n.bestFeat = int32(f)
			n.bestN = thr
		}
	}
	if n.bestGain == 0 {
		b.releaseCols(n)
	}
}

// scoreFeature scans one feature's candidate thresholds and returns the
// best achievable gain for this node along with its threshold (the first
// threshold in ascending order attaining that gain). rows/cnts are the
// node's members with a nonzero count, presorted by (count, row); all
// remaining members implicitly have count 0. A gain of 0 means no
// admissible split.
func (b *builder) scoreFeature(n *node, parentSS float64, rows, cnts []int32) (bestGain float64, bestThr int32) {
	m := n.count()
	nz := m - len(rows) // members with implicit zero count
	ys := b.m.ys

	// Zero-side aggregates.
	var nzSum, nzSumsq float64
	for _, r := range rows {
		y := ys[r]
		nzSum += y
		nzSumsq += y * y
	}
	zeroSum := n.sum - nzSum
	zeroSumsq := n.sumsq - nzSumsq

	// Scan thresholds: after absorbing each distinct count value into
	// the left side, evaluate the split.
	minLeaf := b.opt.MinLeaf
	leftN := nz
	leftSum, leftSumsq := zeroSum, zeroSumsq
	i := 0
	for i <= len(rows) {
		// Threshold = count value of the left side's maximum; first
		// iteration (i==0) corresponds to threshold 0 (zeros only).
		if leftN >= minLeaf && m-leftN >= minLeaf && leftN > 0 && leftN < m {
			rightN := m - leftN
			rightSum := n.sum - leftSum
			rightSumsq := n.sumsq - leftSumsq
			ssL := leftSumsq - leftSum*leftSum/float64(leftN)
			ssR := rightSumsq - rightSum*rightSum/float64(rightN)
			gain := parentSS - ssL - ssR
			if gain > bestGain {
				thr := int32(0)
				if i > 0 {
					thr = cnts[i-1]
				}
				bestGain = gain
				bestThr = thr
			}
		}
		if i == len(rows) {
			break
		}
		// Absorb the next run of equal counts into the left side.
		c := cnts[i]
		for i < len(rows) && cnts[i] == c {
			y := ys[rows[i]]
			leftN++
			leftSum += y
			leftSumsq += y * y
			i++
		}
	}
	return bestGain, bestThr
}

// applySplit turns a leaf with a computed best split into an internal
// node: the membership slice and every column slice are stably
// partitioned between the children, and the children's candidate splits
// are computed.
func (b *builder) applySplit(n *node) {
	m := b.m
	cs := n.cols
	f := n.bestFeat
	thr := n.bestN

	// Mark the right side: members whose count exceeds the threshold.
	// Everyone else (including implicit zeros) goes left.
	for k := cs.start[f]; k < cs.start[f+1]; k++ {
		if cs.cnt[k] > thr {
			b.flag[cs.row[k]] = true
		}
	}

	// Partition every feature column stably between the children.
	left := &node{}
	right := &node{}
	lcs := b.getColSet()
	rcs := b.getColSet()
	lcs.start = append(lcs.start, 0)
	rcs.start = append(rcs.start, 0)
	for ff := 0; ff < m.NumFeatures(); ff++ {
		for k := cs.start[ff]; k < cs.start[ff+1]; k++ {
			r := cs.row[k]
			if b.flag[r] {
				rcs.row = append(rcs.row, r)
				rcs.cnt = append(rcs.cnt, cs.cnt[k])
			} else {
				lcs.row = append(lcs.row, r)
				lcs.cnt = append(lcs.cnt, cs.cnt[k])
			}
		}
		lcs.start = append(lcs.start, int32(len(lcs.row)))
		rcs.start = append(rcs.start, int32(len(rcs.row)))
	}
	left.cols, right.cols = lcs, rcs

	// Partition the membership slice stably, accumulating each side's
	// response sums in member order.
	b.tmp = b.tmp[:0]
	w := n.lo
	for i := n.lo; i < n.hi; i++ {
		r := b.rows[i]
		y := m.ys[r]
		if b.flag[r] {
			b.tmp = append(b.tmp, r)
			right.sum += y
			right.sumsq += y * y
		} else {
			b.rows[w] = r
			w++
			left.sum += y
			left.sumsq += y * y
		}
	}
	copy(b.rows[w:n.hi], b.tmp)
	left.lo, left.hi = n.lo, w
	right.lo, right.hi = w, n.hi

	// Clear the side flags (tmp holds exactly the marked rows).
	for _, r := range b.tmp {
		b.flag[r] = false
	}
	b.releaseCols(n)

	n.split = &Split{EIP: m.eips[f], N: int(thr), Order: len(b.t.splits), Gain: n.bestGain}
	n.left, n.right = left, right
	b.t.splits = append(b.t.splits, n)
	b.findBest(left)
	b.findBest(right)
}
