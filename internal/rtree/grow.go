package rtree

import (
	"cmp"
	"slices"
	"sync"
)

// This file is the columnar growth kernel. A builder carries every piece
// of scratch the best-first loop needs — the row-membership array that is
// partitioned in place, the per-node column sets, and the side and
// feature flags — and builders are pooled, so after warmup a Build
// allocates only the nodes the finished tree retains.
//
// A split costs what the node holds, not what the matrix is wide: a
// node's column set lists only the features present among its members,
// the larger child takes the parent's column set over in place, and only
// the features found in the smaller child's rows are visited to move its
// entries out.
//
// Invariants the kernel preserves (and the equivalence tests lock in):
//
//   - A node's members b.rows[lo:hi] are in ascending dataset-row order:
//     the root starts ascending and splits partition stably.
//   - A node's segment for feature f holds exactly its members' nonzero
//     (row, count) pairs in (count, row) order: the matrix's columns start
//     in that order, and a split only removes entries from a segment
//     (stably) or gathers them into a new one in segment order, so no node
//     ever sorts anything.
//   - Features are scanned in ascending dense-ID order == ascending-EIP
//     order with a strict > gain comparison, so ties break toward the
//     lowest EIP and then the lowest threshold, exactly like the
//     reference kernel. Duplicate columns are absent from the matrix's
//     column index (see dropDuplicateColumns); they could never win that
//     scan.
//   - Every floating-point accumulation (node sums, a segment's cached
//     zero-side sums, threshold prefix sums) visits values in the same
//     order as the reference kernel, so gains — and therefore whole
//     trees — are bit-for-bit identical.

// segment is one present feature's slice of a colSet: its (row, count)
// pairs are row[start:end] and cnt[start:end], and nzSum/nzSumsq are the
// sums of y and y² over those rows, taken in segment order by whichever
// pass built or last compacted the segment.
type segment struct {
	feat           int32
	start, end     int32
	nzSum, nzSumsq float64
}

// colSet holds one node's slices of the presorted feature columns: one
// segment per feature present among the node's members, in ascending
// feature order. Segments of a set that a larger child took over may
// leave gaps in row/cnt.
type colSet struct {
	segs []segment
	row  []int32
	cnt  []int32
}

// closeSeg appends feature f's segment over the entries appended since
// start, with their sums of y and y², unless there are none.
func (cs *colSet) closeSeg(f, start int32, sum, sumsq float64) {
	if end := int32(len(cs.row)); end > start {
		cs.segs = append(cs.segs, segment{feat: f, start: start, end: end, nzSum: sum, nzSumsq: sumsq})
	}
}

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
	// touched is indexed by feature: it marks the features present in a
	// split's smaller side. It is always all-false between uses.
	touched []bool

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
	if F := m.NumFeatures(); cap(b.touched) < F {
		b.touched = make([]bool, F)
	} else {
		b.touched = b.touched[:F]
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
		cs.segs = cs.segs[:0]
		cs.row = cs.row[:0]
		cs.cnt = cs.cnt[:0]
		return cs
	}
	return &colSet{}
}

// releaseCols recycles a node's column set once it can never split
// again (no admissible split exists, or the tree stopped growing).
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
	for f := 0; f < m.NumFeatures(); f++ {
		start := int32(len(cs.row))
		var sum, sumsq float64
		for k := m.colStart[f]; k < m.colStart[f+1]; k++ {
			if r := m.colRow[k]; b.flag[r] {
				cs.row = append(cs.row, r)
				cs.cnt = append(cs.cnt, m.colCnt[k])
				y := m.ys[r]
				sum += y
				sumsq += y * y
			}
		}
		cs.closeSeg(int32(f), start, sum, sumsq)
	}
	for _, r := range b.rows {
		b.flag[r] = false
	}
	return cs
}

// findBest computes the node's best (feature, n) split by scanning each
// of its segments in ascending-feature order with a strict > comparison,
// so ties break toward the lowest EIP and then the lowest threshold.
// Candidate thresholds are the observed counts (including 0) except the
// maximum.
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
	for i := range cs.segs {
		if gain, thr := b.scoreFeature(n, parentSS, cs, &cs.segs[i]); gain > n.bestGain {
			n.bestGain = gain
			n.bestFeat = cs.segs[i].feat
			n.bestN = thr
		}
	}
	if n.bestGain == 0 {
		b.releaseCols(n)
	}
}

// scoreFeature scans one segment's candidate thresholds and returns the
// best achievable gain for this node along with its threshold (the first
// threshold in ascending order attaining that gain). The segment holds
// the node's members with a nonzero count, presorted by (count, row); all
// remaining members implicitly have count 0, and their sums are the
// node's sums less the segment's cached ones. A gain of 0 means no
// admissible split.
func (b *builder) scoreFeature(n *node, parentSS float64, cs *colSet, sg *segment) (bestGain float64, bestThr int32) {
	rows := cs.row[sg.start:sg.end]
	cnts := cs.cnt[sg.start:sg.end]
	m := n.count()
	ys := b.m.ys

	// Scan thresholds: after absorbing each distinct count value into
	// the left side, evaluate the split. The left side starts as the
	// members with an implicit zero count.
	minLeaf := b.opt.MinLeaf
	leftN := m - len(rows)
	leftSum, leftSumsq := n.sum-sg.nzSum, n.sumsq-sg.nzSumsq
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
// node: the membership slice is stably partitioned between the children,
// the larger child takes over the node's column set, the smaller child's
// entries move out of it into a set of their own, and the children's
// candidate splits are computed.
func (b *builder) applySplit(n *node) {
	m := b.m
	cs := n.cols
	f := n.bestFeat
	thr := n.bestN

	// Mark the right side: members whose count exceeds the threshold.
	// Everyone else (including implicit zeros) goes left.
	bi, _ := slices.BinarySearchFunc(cs.segs, f, func(sg segment, f int32) int { return cmp.Compare(sg.feat, f) })
	for k := cs.segs[bi].start; k < cs.segs[bi].end; k++ {
		if cs.cnt[k] > thr {
			b.flag[cs.row[k]] = true
		}
	}

	// Partition the membership slice stably, accumulating each side's
	// response sums in member order.
	left := &node{}
	right := &node{}
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

	small, large := right, left
	if right.count() > left.count() {
		small, large = left, right
	}
	large.cols, n.cols = cs, nil
	small.cols = b.getColSet()
	b.moveSmallSide(cs, small.cols, b.rows[small.lo:small.hi], small == right)

	// Clear the side flags (tmp holds exactly the marked rows).
	for _, r := range b.tmp {
		b.flag[r] = false
	}

	n.split = &Split{EIP: m.eips[f], N: int(thr), Order: len(b.t.splits), Gain: n.bestGain}
	n.left, n.right = left, right
	b.t.splits = append(b.t.splits, n)
	b.findBest(left)
	b.findBest(right)
}

// moveSmallSide moves the smaller child's entries out of the column set
// src, which the larger child keeps, into dst. smallRows are the smaller
// child's members, and a member r is on the smaller side when b.flag[r]
// equals smallIsRight. Only the features found in smallRows' row CSR are
// visited: each such segment is compacted stably in place, and its
// smaller-side entries are gathered in segment order into dst. Both
// sides' cached sums are retaken in segment order; untouched segments
// keep theirs, since their entries did not change.
func (b *builder) moveSmallSide(src, dst *colSet, smallRows []int32, smallIsRight bool) {
	m := b.m
	for _, r := range smallRows {
		for k := m.rowStart[r]; k < m.rowStart[r+1]; k++ {
			if f := m.rowFeat[k]; m.colStart[f] < m.colStart[f+1] {
				b.touched[f] = true
			}
		}
	}
	w := 0
	for i := range src.segs {
		sg := &src.segs[i]
		if b.touched[sg.feat] {
			b.touched[sg.feat] = false
			start := int32(len(dst.row))
			keep := sg.start
			var smallSum, smallSumsq, keptSum, keptSumsq float64
			for k := sg.start; k < sg.end; k++ {
				r := src.row[k]
				y := m.ys[r]
				if b.flag[r] == smallIsRight {
					dst.row = append(dst.row, r)
					dst.cnt = append(dst.cnt, src.cnt[k])
					smallSum += y
					smallSumsq += y * y
				} else {
					src.row[keep], src.cnt[keep] = r, src.cnt[k]
					keep++
					keptSum += y
					keptSumsq += y * y
				}
			}
			dst.closeSeg(sg.feat, start, smallSum, smallSumsq)
			if keep == sg.start {
				continue // the feature is absent from the larger side
			}
			sg.end = keep
			sg.nzSum, sg.nzSumsq = keptSum, keptSumsq
		}
		if w != i {
			src.segs[w] = *sg
		}
		w++
	}
	src.segs = src.segs[:w]
}
