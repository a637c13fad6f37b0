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
// entries out. A segment's threshold scan is skipped when an O(1) upper
// bound on its gain proves it can neither beat nor tie a split the
// node's scan attains; see boundTest.
//
// Invariants the kernel preserves (and the equivalence tests lock in):
//
//   - A node's members b.rows[lo:hi] are in ascending dataset-row order:
//     the root starts ascending and splits partition stably.
//   - A node holds a segment for each feature present among at least
//     MinLeaf of its members (no split on a rarer feature is admissible
//     there or below), and that segment holds exactly the members'
//     nonzero (row, count) pairs in (count, row) order: the matrix's
//     columns start in that order, and a split only removes entries from
//     a segment (stably) or gathers them into a new one in segment order,
//     so no node ever sorts anything.
//   - Features are scanned in ascending dense-ID order == ascending-EIP
//     order with a strict > gain comparison, so ties break toward the
//     lowest EIP and then the lowest threshold, exactly like the
//     reference kernel. Duplicate columns are absent from the matrix's
//     column index (see dropDuplicateColumns); they could never win that
//     scan. A segment skipped by the gain bound scores strictly below a
//     gain the scan attains, so skipping it changes neither the winner
//     nor its threshold.
//   - Every floating-point value that enters a gain (node sums, a
//     segment's zero-side sums, threshold prefix sums) is accumulated in
//     the same order as the reference kernel, so gains — and therefore
//     whole trees — are bit-for-bit identical.
//   - A segment's cached sums are exact (taken in segment order) unless
//     its stale flag is set. A split that removes entries from a segment
//     the larger child keeps subtracts the removed entries' sums instead
//     of retaking the kept ones, and marks the segment stale; stale sums
//     feed only the gain bound, whose slack covers their rounding, and
//     exactSums retakes them in segment order before the segment is
//     scanned.

// segment is one present feature's slice of a colSet: its (row, count)
// pairs are ent[start:end], and nzSum/nzSumsq are the sums of y and y²
// over those rows. They are exact, taken in segment order, unless stale
// is set; then they are running estimates that only the gain bound may
// read. stale fills what would be padding, so a segment stays 32 bytes.
type segment struct {
	feat           int32
	start, end     int32
	stale          bool
	nzSum, nzSumsq float64
}

// colSet holds one node's slices of the presorted feature columns: one
// segment per feature present among at least MinLeaf of the node's
// members, in ascending feature order. A feature present among fewer
// admits no split in the node or in any node below it, whose entries are
// a subset, so its segment is dropped. Segments of a set that a larger
// child took over may leave gaps in ent.
type colSet struct {
	segs []segment
	ent  []entry
}

// entry is one member's nonzero count for a segment's feature.
type entry struct{ row, cnt int32 }

// closeSeg appends feature f's segment over the entries appended since
// start, with their sums of y and y², or drops those entries if there
// are fewer than minLeaf.
func (cs *colSet) closeSeg(f, start int32, minLeaf int, sum, sumsq float64) {
	if end := int32(len(cs.ent)); int(end-start) >= minLeaf {
		cs.segs = append(cs.segs, segment{feat: f, start: start, end: end, nzSum: sum, nzSumsq: sumsq})
	} else {
		cs.ent = cs.ent[:start]
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
	// touched is indexed by feature: touched[f] == stamp marks the
	// features present in the current split's smaller side. stamp grows
	// by one per split, so no pass clears the marks.
	touched []uint32
	stamp   uint32

	// slack is the absolute rounding allowance of the gain-bound test,
	// fixed per build from the root's sums (see boundSlack).
	slack float64

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
		b.touched = make([]uint32, F)
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
		cs.ent = cs.ent[:0]
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
		start := int32(len(cs.ent))
		var sum, sumsq float64
		for k := m.colStart[f]; k < m.colStart[f+1]; k++ {
			if r := m.colRow[k]; b.flag[r] {
				cs.ent = append(cs.ent, entry{r, m.colCnt[k]})
				y := m.ys[r]
				sum += y
				sumsq += y * y
			}
		}
		cs.closeSeg(int32(f), start, b.opt.MinLeaf, sum, sumsq)
	}
	for _, r := range b.rows {
		b.flag[r] = false
	}
	return cs
}

// A split's right side is the members whose count exceeds the
// threshold, so for a segment S of s entries it is a set R ⊆ S of
// b ≤ b_max = min(s, m−MinLeaf) members. It gains
// m/(b(m−b))·(Σ_R(y−μ))² in a node of m members with mean μ; by
// Cauchy–Schwarz that is at most m/(m−b)·Σ_R(y−μ)² ≤ m/(m−b_max)·Q with
// Q = Σ_S(y−μ)² = Σy² − 2μΣy + sμ², which the segment's cached sums give
// in O(1). A segment's scan is skipped when that bound satisfies
//
//	bound·(1+boundRel) + slack < bar,
//
// where bar is a gain the node's scan attains, so the segment's computed
// gain can neither beat nor tie the result. boundRel covers the relative
// rounding of the bound's own few operations, and slack the absolute
// rounding of the gain and the bound (stale sums included): for a build
// over N rows with Σy² = R, first-order error stays below 8·N²·u·R with
// u = 2⁻⁵³, and the slack is 64·N²·u·R. DESIGN.md has the derivation.
const boundRel = 0x1p-40

// boundSlack returns slack/R for a build over n rows: 64·n²·2⁻⁵³.
func boundSlack(n int) float64 { return float64(n) * float64(n) * 0x1p-47 }

// boundTest is one node's gain-bound test against a bar.
type boundTest struct {
	m, minLeaf int
	mu         float64
	fm         float64 // m·(1+boundRel)
	slack      float64
	cut        float64 // bar − slack
}

func newBoundTest(n *node, minLeaf int, slack float64) boundTest {
	return boundTest{m: n.count(), minLeaf: minLeaf, mu: n.mean(),
		fm: float64(n.count()) * (1 + boundRel), slack: slack}
}

// raise sets the bar to gain.
func (t *boundTest) raise(gain float64) { t.cut = gain - t.slack }

// skip reports whether a segment of s entries with response sums sum and
// sumsq provably scores below the bar: m·Q/(m−b_max)·(1+boundRel) + slack
// < bar, multiplied out by m−b_max = max(m−s, MinLeaf) > 0.
func (t *boundTest) skip(s int, sum, sumsq float64) bool {
	q := sumsq - t.mu*(2*sum-float64(s)*t.mu)
	if q < 0 {
		q = 0
	}
	return t.fm*q < t.cut*float64(max(t.m-s, t.minLeaf))
}

// findBest computes the node's best (feature, n) split by scanning its
// segments in ascending-feature order with a strict > comparison, so ties
// break toward the lowest EIP and then the lowest threshold. Candidate
// thresholds are the observed counts (including 0) except the maximum.
//
// hint is the feature that split the node's parent (-1 at the root). Its
// segment, if the node still holds one, is scored first; its gain and
// then the running best are the bar the gain bound skips segments
// against.
func (b *builder) findBest(n *node, hint int32) {
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
	bt := newBoundTest(n, b.opt.MinLeaf, b.slack)
	floorAt, floor, floorThr := -1, 0.0, int32(0)
	if i, ok := cs.find(hint); ok {
		floorAt = i
		floor, floorThr = b.scoreFeature(n, parentSS, cs, &cs.segs[i])
	}
	bt.raise(floor)
	for i := range cs.segs {
		sg := &cs.segs[i]
		gain, thr := floor, floorThr
		if i != floorAt {
			if bt.skip(int(sg.end-sg.start), sg.nzSum, sg.nzSumsq) {
				continue
			}
			gain, thr = b.scoreFeature(n, parentSS, cs, sg)
		}
		if gain > n.bestGain {
			n.bestGain = gain
			n.bestFeat = sg.feat
			n.bestN = thr
			if gain > floor {
				bt.raise(gain)
			}
		}
	}
	if n.bestGain == 0 {
		b.releaseCols(n)
	}
}

// find returns the index of feature f's segment, if the set holds one.
func (cs *colSet) find(f int32) (int, bool) {
	return slices.BinarySearchFunc(cs.segs, f, func(sg segment, f int32) int { return cmp.Compare(sg.feat, f) })
}

// exactSums retakes a stale segment's sums of y and y² in segment order.
func (b *builder) exactSums(cs *colSet, sg *segment) {
	var sum, sumsq float64
	for _, e := range cs.ent[sg.start:sg.end] {
		y := b.m.ys[e.row]
		sum += y
		sumsq += y * y
	}
	sg.nzSum, sg.nzSumsq, sg.stale = sum, sumsq, false
}

// scoreFeature scans one segment's candidate thresholds and returns the
// best achievable gain for this node along with its threshold (the first
// threshold in ascending order attaining that gain). The segment holds
// the node's members with a nonzero count, presorted by (count, row); all
// remaining members implicitly have count 0, and their sums are the
// node's sums less the segment's exact cached ones (retaken first if
// stale). A gain of 0 means no admissible split.
func (b *builder) scoreFeature(n *node, parentSS float64, cs *colSet, sg *segment) (bestGain float64, bestThr int32) {
	if sg.stale {
		b.exactSums(cs, sg)
	}
	ents := cs.ent[sg.start:sg.end]
	m := n.count()
	ys := b.m.ys

	// Scan thresholds: after absorbing each distinct count value into
	// the left side, evaluate the split. The left side starts as the
	// members with an implicit zero count.
	minLeaf := b.opt.MinLeaf
	leftN := m - len(ents)
	leftSum, leftSumsq := n.sum-sg.nzSum, n.sumsq-sg.nzSumsq
	i := 0
	for i <= len(ents) {
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
					thr = ents[i-1].cnt
				}
				bestGain = gain
				bestThr = thr
			}
		}
		if i == len(ents) {
			break
		}
		// Absorb the next run of equal counts into the left side.
		c := ents[i].cnt
		for i < len(ents) && ents[i].cnt == c {
			y := ys[ents[i].row]
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
	bi, _ := cs.find(f)
	for k := cs.segs[bi].start; k < cs.segs[bi].end; k++ {
		if e := cs.ent[k]; e.cnt > thr {
			b.flag[e.row] = true
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
	b.findBest(left, f)
	b.findBest(right, f)
}

// moveSmallSide moves the smaller child's entries out of the column set
// src, which the larger child keeps, into dst. smallRows are the smaller
// child's members, and a member r is on the smaller side when b.flag[r]
// equals smallIsRight. Only the features found in smallRows' row CSR are
// visited: each such segment is compacted stably in place, and its
// smaller-side entries are gathered in segment order into dst, whose
// sums are taken in that order and so are exact. The kept segment's sums
// become the old ones less the moved entries', marked stale; untouched
// segments keep theirs, since their entries did not change. Either side's
// segment is dropped when fewer than MinLeaf entries remain in it.
func (b *builder) moveSmallSide(src, dst *colSet, smallRows []int32, smallIsRight bool) {
	m := b.m
	if b.stamp++; b.stamp == 0 { // wrapped: forget every old mark
		clear(b.touched)
		b.stamp = 1
	}
	for _, r := range smallRows {
		for _, f := range m.rowFeat[m.rowStart[r]:m.rowStart[r+1]] {
			b.touched[f] = b.stamp
		}
	}
	minLeaf := b.opt.MinLeaf
	w := 0
	for i := range src.segs {
		sg := &src.segs[i]
		if b.touched[sg.feat] == b.stamp {
			// Copy every entry to both sides' next slots and advance the
			// side it belongs to: with no branch on the side, the loop
			// does not stall on mispredictions.
			start, n := len(dst.ent), int(sg.end-sg.start)
			dst.ent = slices.Grow(dst.ent, n)[:start+n]
			moved, keep := start, sg.start
			for k := sg.start; k < sg.end; k++ {
				e := src.ent[k]
				dst.ent[moved] = e
				src.ent[keep] = e
				small := 0
				if b.flag[e.row] == smallIsRight {
					small = 1
				}
				moved += small
				keep += int32(1 - small)
			}
			dst.ent = dst.ent[:moved]
			var smallSum, smallSumsq float64
			for _, e := range dst.ent[start:] {
				y := m.ys[e.row]
				smallSum += y
				smallSumsq += y * y
			}
			dst.closeSeg(sg.feat, int32(start), minLeaf, smallSum, smallSumsq)
			if int(keep-sg.start) < minLeaf {
				continue // too few entries left to split the larger side
			}
			sg.end = keep
			sg.nzSum -= smallSum
			sg.nzSumsq -= smallSumsq
			sg.stale = true
		}
		if w != i {
			src.segs[w] = *sg
		}
		w++
	}
	src.segs = src.segs[:w]
}
