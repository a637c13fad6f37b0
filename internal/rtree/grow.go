package rtree

import (
	"cmp"
	"math"
	"slices"
	"sync"
)

// This file is the growth kernel. A builder carries every piece of
// scratch the best-first loop needs — the row-membership array that is
// partitioned in place, the per-node histograms, and the row and feature
// marks — and builders are pooled, so after warmup a Build allocates
// only the nodes the finished tree retains.
//
// A node's split search reads a histogram, not its entries: per feature
// present among its members, one bin per distinct count value of the
// feature's column (see Matrix), holding the members' count and sums of
// y and y². A split scatters only the smaller child's rows: the larger
// child keeps the parent's histogram in place, and the smaller child's
// bins are subtracted from it only in the features those rows touch.
//
// Histogram sums are approximate (their additions run in scatter order,
// less subtractions), so they only screen: every feature whose
// approximate best gain is within 2·slack of the node's approximate best
// is rescored exactly, over its members' entries in (count, row) order,
// and the exact scores alone pick the split. A feature's threshold scan
// is skipped outright when an O(1) upper bound on its gain proves it
// cannot come within reach; see boundTest.
//
// Invariants the kernel preserves (and the equivalence tests lock in):
//
//   - A node's members b.rows[lo:hi] are in ascending dataset-row order:
//     the root starts ascending and splits partition stably.
//   - A node holds a group for each feature present among at least
//     MinLeaf of its members (no split on a rarer feature is admissible
//     there or below); member counts, per group and per bin, are exact.
//   - The exact rescoring scans features in ascending dense-ID order ==
//     ascending-EIP order with a strict > gain comparison, so ties break
//     toward the lowest EIP and then the lowest threshold, exactly like
//     the reference kernel. Duplicate columns are absent from the
//     matrix's column index; they could never win that scan. A feature
//     the screen leaves out scores strictly below the reference's winner,
//     so leaving it out changes neither the winner nor its threshold.
//   - Every floating-point value that enters an exact gain (node sums, a
//     feature's zero-side sums, threshold prefix sums) is accumulated in
//     the same order as the reference kernel, so gains — and therefore
//     whole trees — are bit-for-bit identical.

// group is one feature's part of a node's histogram: the n members with
// a nonzero count for feat, with their sums of y and y², and their bins
// bins[bin : bin+numBins(feat)] of the node's binSet.
type group struct {
	feat, bin, n int32
	sum, sumsq   float64
}

// bin is the members with one count value of a group's feature.
type bin struct {
	n          int32
	sum, sumsq float64
}

// binSet is one node's histogram: a group per feature present among at
// least MinLeaf of its members, in ascending feature order, except that
// a larger child's groups that its split left below MinLeaf stay until
// its split search drops them. Dropped groups leave gaps in bins.
type binSet struct {
	groups []group
	bins   []bin
	// slack is the screen's rounding allowance for these sums (see
	// boundSlack), from the rows a fresh scatter summed them over.
	slack float64
}

// find returns the index of feature f's group, if the set holds one.
func (s *binSet) find(f int32) (int, bool) {
	return slices.BinarySearchFunc(s.groups, f, func(g group, f int32) int { return cmp.Compare(g.feat, f) })
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
	// flag is indexed by dataset row and marks the right side during
	// each split. It is always all-false between uses.
	flag []bool
	// owner is indexed by dataset row: the id of the frontier leaf
	// holding the row, or -1 when the row is not in the build.
	owner  []int32
	nextID int32
	// count is indexed by feature: during a split, how many of the
	// smaller side's rows hold it (saturating), and 0 between splits.
	// marks holds two bitmaps over features, set during a split: the
	// features the smaller child gets a group for, whose bins start at
	// at[f], and those whose entries are subtracted from the larger
	// child's group at[f] one by one.
	count []uint8
	marks []uint64
	at    []int32
	// src is, per group of the smaller child, the index of the parent's
	// group for the same feature, or -1 when that group dies in the split.
	src []int32

	// cands and gains are the screen's candidate groups and their
	// approximate gains; members and cursor are the exact rescoring's
	// gathered rows and per-bin cursors.
	cands   []int32
	gains   []float64
	members []int32
	cursor  []int32

	frontier []*node
	free     []*binSet // recycled histograms
}

var builderPool = sync.Pool{New: func() any { return &builder{} }}

func getBuilder(m *Matrix, opt Options) *builder {
	b := builderPool.Get().(*builder)
	b.m = m
	b.opt = opt
	n, F := m.NumRows(), m.NumFeatures()
	b.flag = resize(b.flag, n)
	b.owner = resize(b.owner, n)
	b.count = resize(b.count, F)
	b.marks = resize(b.marks, 2*((F+63)/64))
	b.at = resize(b.at, F)
	return b
}

// resize returns s with length n, reusing its array when it is large
// enough. Reused elements keep their values.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func putBuilder(b *builder) {
	b.m = nil
	b.t = nil
	b.frontier = b.frontier[:0]
	builderPool.Put(b)
}

func (b *builder) getSet() *binSet {
	if n := len(b.free); n > 0 {
		s := b.free[n-1]
		b.free = b.free[:n-1]
		s.groups = s.groups[:0]
		s.bins = s.bins[:0]
		return s
	}
	return &binSet{}
}

// releaseSet recycles a node's histogram once it can never split again
// (no admissible split exists, or the tree stopped growing).
func (b *builder) releaseSet(n *node) {
	if n.set != nil {
		b.free = append(b.free, n.set)
		n.set = nil
	}
}

// rootHist is the histogram of every row of a matrix, which the folds of
// one cross-validation share read-only: a fold's root copies it and
// subtracts its held-out rows, rather than scattering its training rows
// afresh.
type rootHist struct {
	set   binSet
	group []int32 // feature -> index of its group in set, or -1
	sumsq float64 // Σy² over every row
}

func (m *Matrix) rootHist(minLeaf int) *rootHist {
	h := &rootHist{group: make([]int32, m.NumFeatures())}
	rows := make([]int32, m.NumRows())
	for r := range rows {
		rows[r] = int32(r)
		h.sumsq += m.ys[r] * m.ys[r]
	}
	m.scatter(&h.set, rows, minLeaf)
	for f := range h.group {
		h.group[f] = -1
	}
	for i, g := range h.set.groups {
		h.group[g.feat] = int32(i)
	}
	return h
}

// rootSet gives every build row to the root and makes its histogram:
// shared less the rows outside the build, or a scatter of the build's
// rows when shared is nil.
func (b *builder) rootSet(root *node, shared *rootHist) *binSet {
	m := b.m
	for i := range b.owner {
		b.owner[i] = -1
	}
	for _, r := range b.rows {
		b.owner[r] = root.id
	}
	b.nextID = root.id + 1
	s := b.getSet()
	if shared == nil {
		m.scatter(s, b.rows, b.opt.MinLeaf)
		s.slack = boundSlack(root.count()) * root.sumsq
		return s
	}
	// The shared sums start from every row, so the slack covers them all.
	s.slack = boundSlack(m.NumRows()) * shared.sumsq
	s.groups = append(s.groups, shared.set.groups...)
	s.bins = append(s.bins, shared.set.bins...)
	for r, owner := range b.owner {
		if owner >= 0 {
			continue
		}
		y := m.ys[r]
		for k := m.rowStart[r]; k < m.rowStart[r+1]; k++ {
			if i := shared.group[m.rowFeat[k]]; i >= 0 {
				g := &s.groups[i]
				g.n--
				g.sum -= y
				g.sumsq -= y * y
				bn := &s.bins[g.bin+m.rowBin[k]]
				bn.n--
				bn.sum -= y
				bn.sumsq -= y * y
			}
		}
	}
	return s
}

// scatter fills s with the histogram of rows, laid out like the matrix's
// bins, keeping a group for every feature present among at least minLeaf
// of them.
func (m *Matrix) scatter(s *binSet, rows []int32, minLeaf int) {
	s.bins = resize(s.bins, len(m.binCnt))
	clear(s.bins)
	for _, r := range rows {
		y := m.ys[r]
		for k := m.rowStart[r]; k < m.rowStart[r+1]; k++ {
			if j := m.rowBin[k]; j >= 0 {
				bn := &s.bins[m.binStart[m.rowFeat[k]]+j]
				bn.n++
				bn.sum += y
				bn.sumsq += y * y
			}
		}
	}
	s.groups = s.groups[:0]
	for f := int32(0); f < int32(m.NumFeatures()); f++ {
		g := group{feat: f, bin: m.binStart[f]}
		for _, bn := range s.bins[m.binStart[f]:m.binStart[f+1]] {
			g.n += bn.n
			g.sum += bn.sum
			g.sumsq += bn.sumsq
		}
		if int(g.n) >= minLeaf {
			s.groups = append(s.groups, g)
		}
	}
}

// A split's right side is the members whose count exceeds the
// threshold, so for a feature present among s members it is a set R of
// b ≤ b_max = min(s, m−MinLeaf) of them. It gains m/(b(m−b))·(Σ_R(y−μ))²
// in a node of m members with mean μ; by Cauchy–Schwarz that is at most
// m/(m−b)·Σ_R(y−μ)² ≤ m/(m−b_max)·Q with Q = Σy² − 2μΣy + sμ² over
// those s members, which the group's sums give in O(1). A group's scan
// is skipped when that bound satisfies
//
//	bound·(1+boundRel) + 2·slack < bar,
//
// where bar is an approximate gain the node's screen attains, so the
// group's exact gain falls short of some other feature's and can neither
// win nor tie. boundRel covers the relative rounding of the bound's own
// few operations, and slack the absolute rounding of a gain, exact or
// approximate, and of the bound: when a histogram's sums start from a
// fresh scatter of N rows with Σy² = R (the build's rows, every row of
// the matrix for a fold's shared root, or a smaller child's rows), and
// every node that reads it holds a subset of them, first-order error stays
// within about 30·N²·u·R with u = 2⁻⁵³, and the histogram's slack is
// 64·N²·u·R. DESIGN.md has the derivation.
const boundRel = 0x1p-40

// boundSlack returns slack/R for a build over n rows: 64·n²·2⁻⁵³.
func boundSlack(n int) float64 { return float64(n) * float64(n) * 0x1p-47 }

// boundTest is one node's gain-bound test against a bar.
type boundTest struct {
	m, minLeaf int
	mu         float64
	fm         float64 // m·(1+boundRel)
	margin     float64 // 2·slack
	cut        float64 // bar − margin
}

func newBoundTest(n *node, minLeaf int, slack float64) boundTest {
	return boundTest{m: n.count(), minLeaf: minLeaf, mu: n.mean(),
		fm: float64(n.count()) * (1 + boundRel), margin: 2 * slack}
}

// raise sets the bar to gain.
func (t *boundTest) raise(gain float64) { t.cut = gain - t.margin }

// skip reports whether a group of s members with response sums sum and
// sumsq provably scores below the bar: m·Q/(m−b_max)·(1+boundRel) +
// 2·slack < bar, multiplied out by m−b_max = max(m−s, MinLeaf) > 0.
func (t *boundTest) skip(s int, sum, sumsq float64) bool {
	q := sumsq - t.mu*(2*sum-float64(s)*t.mu)
	if q < 0 {
		q = 0
	}
	return t.fm*q < t.cut*float64(max(t.m-s, t.minLeaf))
}

// findBest computes the node's best (feature, n) split. The screen scans
// the groups in ascending feature order on the approximate histogram;
// the groups whose approximate best gain is within 2·slack of the
// largest are then rescored exactly, in ascending feature order with a
// strict > comparison, so ties break toward the lowest EIP and then the
// lowest threshold. Candidate thresholds are the observed counts
// (including 0) except the maximum.
//
// hint is the feature that split the node's parent (-1 at the root). Its
// group, if the node still holds one, is screened first; its gain and
// then the running best are the bar the gain bound skips groups against.
func (b *builder) findBest(n *node, hint int32) {
	n.bestGain = 0
	if n.count() < 2*b.opt.MinLeaf {
		b.releaseSet(n)
		return
	}
	parentSS := n.ss()
	if parentSS <= 1e-12 {
		b.releaseSet(n)
		return
	}

	s := n.set
	bt := newBoundTest(n, b.opt.MinLeaf, s.slack)
	margin := 2 * s.slack
	best := math.Inf(-1)
	hintAt, hintGain := -1, 0.0
	minLeaf := int32(b.opt.MinLeaf)
	if i, ok := s.find(hint); ok && s.groups[i].n >= minLeaf {
		hintAt = i
		hintGain = b.screenScore(n, parentSS, s, &s.groups[i])
		best = hintGain
		bt.raise(best)
	}
	// The scan also drops the groups the split that made the node left
	// below MinLeaf, compacting the rest down to groups[:w].
	b.cands, b.gains = b.cands[:0], b.gains[:0]
	w := 0
	for i := range s.groups {
		if s.groups[i].n < minLeaf {
			continue
		}
		if w != i {
			s.groups[w] = s.groups[i]
		}
		g := &s.groups[w]
		w++
		gain := hintGain
		if i != hintAt {
			if bt.skip(int(g.n), g.sum, g.sumsq) {
				continue
			}
			gain = b.screenScore(n, parentSS, s, g)
			if gain > best {
				best = gain
				bt.raise(gain)
			}
		}
		// An exact gain is within slack of its approximation, so a group
		// at or below -slack cannot score above 0.
		if gain >= best-margin && gain > -s.slack {
			b.cands = append(b.cands, int32(w-1))
			b.gains = append(b.gains, gain)
		}
	}
	s.groups = s.groups[:w]
	for j, i := range b.cands {
		if b.gains[j] < best-margin {
			continue
		}
		g := &s.groups[i]
		gain, thr := b.exactScore(n, parentSS, s, g)
		if gain > n.bestGain {
			n.bestGain = gain
			n.bestFeat = g.feat
			n.bestN = thr
		}
	}
	if n.bestGain == 0 {
		b.releaseSet(n)
	}
}

// screenScore scans one group's bins and returns the best approximate
// gain over its admissible thresholds, or -Inf if it has none.
func (b *builder) screenScore(n *node, parentSS float64, s *binSet, g *group) float64 {
	m := n.count()
	minLeaf := b.opt.MinLeaf
	leftN := m - int(g.n)
	leftSum, leftSumsq := n.sum-g.sum, n.sumsq-g.sumsq
	best := math.Inf(-1)
	for _, bn := range s.bins[g.bin : g.bin+b.m.numBins(g.feat)] {
		if bn.n == 0 {
			continue
		}
		if m-leftN < minLeaf {
			break
		}
		if leftN >= minLeaf {
			best = max(best, splitGain(parentSS, m, leftN, n.sum-leftSum, leftSum, n.sumsq-leftSumsq, leftSumsq))
		}
		leftN += int(bn.n)
		leftSum += bn.sum
		leftSumsq += bn.sumsq
	}
	return best
}

// splitGain is the variance reduction of splitting m members into a
// left side of leftN with the given sums and a right side of the rest,
// computed exactly as the reference kernel computes it.
func splitGain(parentSS float64, m, leftN int, rightSum, leftSum, rightSumsq, leftSumsq float64) float64 {
	ssL := leftSumsq - leftSum*leftSum/float64(leftN)
	ssR := rightSumsq - rightSum*rightSum/float64(m-leftN)
	return parentSS - ssL - ssR
}

// exactScore scans one group's candidate thresholds over its members'
// entries in (count, row) order and returns the best achievable gain for
// this node along with its threshold (the first threshold in ascending
// order attaining that gain). The members with an implicit zero count
// start on the left, with the node's sums less the entries' sums taken in
// that order, exactly as the reference kernel sums them. A gain of 0
// means no admissible split.
func (b *builder) exactScore(n *node, parentSS float64, s *binSet, g *group) (bestGain float64, bestThr int32) {
	ys := b.m.ys
	members := b.gather(n, s, g)
	var nzSum, nzSumsq float64
	for _, r := range members {
		y := ys[r]
		nzSum += y
		nzSumsq += y * y
	}
	m := n.count()
	minLeaf := b.opt.MinLeaf
	leftN := m - len(members)
	leftSum, leftSumsq := n.sum-nzSum, n.sumsq-nzSumsq
	thr := int32(0)
	cnt := b.m.binCnt[b.m.binStart[g.feat]:]
	i := 0
	for j, bn := range s.bins[g.bin : g.bin+b.m.numBins(g.feat)] {
		if bn.n == 0 {
			continue
		}
		if m-leftN < minLeaf {
			break
		}
		if leftN >= minLeaf {
			if gain := splitGain(parentSS, m, leftN, n.sum-leftSum, leftSum, n.sumsq-leftSumsq, leftSumsq); gain > bestGain {
				bestGain, bestThr = gain, thr
			}
		}
		// Absorb the run of members with the bin's count into the left
		// side.
		for _, r := range members[i : i+int(bn.n)] {
			y := ys[r]
			leftN++
			leftSum += y
			leftSumsq += y * y
		}
		i += int(bn.n)
		thr = cnt[j]
	}
	return bestGain, bestThr
}

// gather returns the node's members with a nonzero count for g's
// feature, in (count, row) order. It filters the feature's presorted
// column by owner when the column is short next to the node, and
// otherwise looks the feature up in each member's row, placing the
// members, which ascend, at their bins' offsets in order.
func (b *builder) gather(n *node, s *binSet, g *group) []int32 {
	m := b.m
	f := g.feat
	b.members = b.members[:0]
	col := m.colRow[m.colStart[f]:m.colStart[f+1]]
	if len(col) <= gatherColumnRatio*n.count() {
		// Write every row and keep the members: no branch on membership.
		b.members = resize(b.members, len(col))
		w := 0
		for _, r := range col {
			b.members[w] = r
			if b.owner[r] == n.id {
				w++
			}
		}
		return b.members[:w]
	}
	b.members = resize(b.members, int(g.n))
	b.cursor = b.cursor[:0]
	at := int32(0)
	for _, bn := range s.bins[g.bin : g.bin+m.numBins(f)] {
		b.cursor = append(b.cursor, at)
		at += bn.n
	}
	for _, r := range b.rows[n.lo:n.hi] {
		if k, ok := m.rowEntry(r, f); ok {
			j := m.rowBin[k]
			b.members[b.cursor[j]] = r
			b.cursor[j]++
		}
	}
	return b.members
}

// gatherColumnRatio is how many times longer than the node a column may
// be for gather to filter it rather than search the members' rows.
const gatherColumnRatio = 32

// applySplit turns a leaf with a computed best split into an internal
// node: the membership slice is stably partitioned between the children,
// the larger child keeps the node's histogram and id, the smaller child
// gets a histogram of its own (see splitSet), and the children's
// candidate splits are computed.
func (b *builder) applySplit(n *node) {
	m := b.m
	s := n.set
	f := n.bestFeat
	thr := n.bestN

	// Mark the right side: members whose count exceeds the threshold,
	// which come last in (count, row) order. Everyone else (including
	// implicit zeros) goes left.
	gi, _ := s.find(f)
	g := &s.groups[gi]
	members := b.gather(n, s, g)
	left := 0
	for j, bn := range s.bins[g.bin : g.bin+m.numBins(f)] {
		if m.binCnt[m.binStart[f]+int32(j)] > thr {
			break
		}
		left += int(bn.n)
	}
	for _, r := range members[left:] {
		b.flag[r] = true
	}

	// Partition the membership slice stably, accumulating each side's
	// response sums in member order.
	l := &node{}
	r := &node{}
	b.tmp = b.tmp[:0]
	w := n.lo
	for i := n.lo; i < n.hi; i++ {
		row := b.rows[i]
		y := m.ys[row]
		if b.flag[row] {
			b.tmp = append(b.tmp, row)
			r.sum += y
			r.sumsq += y * y
		} else {
			b.rows[w] = row
			w++
			l.sum += y
			l.sumsq += y * y
		}
	}
	copy(b.rows[w:n.hi], b.tmp)
	l.lo, l.hi = n.lo, w
	r.lo, r.hi = w, n.hi
	// Clear the side flags (tmp holds exactly the marked rows).
	for _, row := range b.tmp {
		b.flag[row] = false
	}

	small, large := r, l
	if r.count() > l.count() {
		small, large = l, r
	}
	large.set, large.id, n.set = s, n.id, nil
	small.id = b.nextID
	b.nextID++
	smallRows := b.rows[small.lo:small.hi]
	for _, row := range smallRows {
		b.owner[row] = small.id
	}
	if small.count() >= 2*b.opt.MinLeaf {
		small.set = b.getSet()
		small.set.slack = boundSlack(small.count()) * small.sumsq
	}
	b.splitSet(s, small.set, smallRows)

	n.split = &Split{EIP: m.eips[f], N: int(thr), Order: len(b.t.splits), Gain: n.bestGain}
	n.left, n.right = l, r
	b.t.splits = append(b.t.splits, n)
	b.findBest(l, f)
	b.findBest(r, f)
}

// splitSet takes the smaller child's share out of the histogram src,
// which the larger child keeps, and gives it to dst, unless dst is nil
// (a child too small to split needs no histogram). A feature present
// among at least MinLeaf of the smaller side's rows gets a group in dst
// with bins scattered from the rows' CSR, and those bins and sums are
// subtracted from src's group for the feature; a rarer one's entries are
// subtracted from src one by one. Groups the rows do not touch are
// neither visited nor copied. A group of fewer than MinLeaf members is
// dropped: at once from dst, and from src by the larger child's split
// search (findBest), which scans every group anyway.
func (b *builder) splitSet(src, dst *binSet, smallRows []int32) {
	m := b.m
	minLeaf := int32(b.opt.MinLeaf)
	for _, r := range smallRows {
		for _, f := range m.rowFeat[m.rowStart[r]:m.rowStart[r+1]] {
			if b.count[f] < math.MaxUint8 {
				b.count[f]++
			}
		}
	}
	// A saturated count may still be below a larger MinLeaf; its group is
	// then dropped below like any other.
	groupAt := uint8(min(minLeaf, math.MaxUint8))
	grouped, direct := b.marks[:len(b.marks)/2], b.marks[len(b.marks)/2:]
	clear(b.marks)
	b.src = b.src[:0]
	for i := range src.groups {
		g := &src.groups[i]
		f := g.feat
		c := b.count[f]
		if c == 0 {
			continue
		}
		// A group the larger child keeps fewer than MinLeaf members of
		// (counts below the cap are exact) is dropped by its next search,
		// so only its member count is brought up to date.
		srcAt := int32(i)
		if c < math.MaxUint8 && g.n-int32(c) < minLeaf {
			g.n -= int32(c)
			srcAt = -1
		}
		if dst == nil || c < groupAt {
			if srcAt >= 0 {
				direct[f>>6] |= 1 << (f & 63)
				b.at[f] = srcAt
			}
			continue
		}
		grouped[f>>6] |= 1 << (f & 63)
		start := len(dst.bins)
		b.at[f] = int32(start)
		b.src = append(b.src, srcAt)
		dst.groups = append(dst.groups, group{feat: f, bin: int32(start)})
		dst.bins = slices.Grow(dst.bins, int(m.numBins(f)))[:start+int(m.numBins(f))]
		clear(dst.bins[start:])
	}
	for _, r := range smallRows {
		y := m.ys[r]
		for k := m.rowStart[r]; k < m.rowStart[r+1]; k++ {
			f := m.rowFeat[k]
			b.count[f] = 0
			if grouped[f>>6]&(1<<(f&63)) != 0 {
				bn := &dst.bins[b.at[f]+m.rowBin[k]]
				bn.n++
				bn.sum += y
				bn.sumsq += y * y
			} else if direct[f>>6]&(1<<(f&63)) != 0 {
				g := &src.groups[b.at[f]]
				g.n--
				g.sum -= y
				g.sumsq -= y * y
				bn := &src.bins[g.bin+m.rowBin[k]]
				bn.n--
				bn.sum -= y
				bn.sumsq -= y * y
			}
		}
	}
	if dst == nil {
		return
	}

	w, wb := 0, 0
	for j := range dst.groups {
		g := &dst.groups[j]
		nb := int(m.numBins(g.feat))
		bins := dst.bins[g.bin : int(g.bin)+nb]
		for _, bn := range bins {
			g.n += bn.n
			g.sum += bn.sum
			g.sumsq += bn.sumsq
		}
		if at := b.src[j]; at >= 0 {
			sg := &src.groups[at]
			for i, bn := range bins {
				sb := &src.bins[int(sg.bin)+i]
				sb.n -= bn.n
				sb.sum -= bn.sum
				sb.sumsq -= bn.sumsq
			}
			sg.n -= g.n
			sg.sum -= g.sum
			sg.sumsq -= g.sumsq
		}
		if g.n >= minLeaf {
			if w != j {
				copy(dst.bins[wb:], bins)
				g.bin = int32(wb)
				dst.groups[w] = *g
			}
			w++
			wb += nb
		}
	}
	dst.groups, dst.bins = dst.groups[:w], dst.bins[:wb]
}
