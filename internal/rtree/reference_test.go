package rtree

import "sort"

// This file retains the original map-based split-search kernel as the
// oracle for the columnar kernel's equivalence tests. It rebuilds a
// map[uint64][]cy feature index from scratch at every node and re-sorts
// every feature's observations — exactly the cost the columnar kernel
// removes — but its split decisions and floating-point accumulation
// orders define the semantics the fast path must reproduce bit-for-bit.
//
// As a _test.go file it is compiled only into the tests and benchmarks.
// One deliberate deviation from the pre-columnar code: scoreFeature sorts
// with sort.SliceStable instead of sort.Slice, pinning equal-count
// observations to ascending member order. That is the canonical
// (count, row) order the presorted columns produce; the unstable sort's
// permutation of equal counts was an unobservable implementation accident
// (it could only reorder float additions within a run of equal counts).
// The reference path is serial, like the columnar kernel's growth; only
// cross-validation runs its folds on Parallelism workers, and the
// equivalence tests check its curves at several settings.

// refNode is a reference-tree node; members holds dataset indices.
type refNode struct {
	members []int
	sum     float64
	sumsq   float64

	split       *Split
	left, right *refNode

	bestEIP  uint64
	bestN    int
	bestGain float64
}

func (n *refNode) count() int { return len(n.members) }

func (n *refNode) mean() float64 {
	if len(n.members) == 0 {
		return 0
	}
	return n.sum / float64(len(n.members))
}

func (n *refNode) ss() float64 {
	if len(n.members) == 0 {
		return 0
	}
	return n.sumsq - n.sum*n.sum/float64(len(n.members))
}

// refTree is a reference-kernel regression tree.
type refTree struct {
	data   Dataset
	root   *refNode
	splits []*refNode
	opt    Options
}

func (t *refTree) Leaves() int { return len(t.splits) + 1 }

func (t *refTree) Splits() []Split {
	out := make([]Split, len(t.splits))
	for i, n := range t.splits {
		out[i] = *n.split
	}
	return out
}

// referenceBuild grows a tree with the original map-based kernel.
func referenceBuild(data Dataset, opt Options) *refTree {
	if opt.MaxLeaves < 1 {
		opt.MaxLeaves = 1
	}
	if opt.MinLeaf < 1 {
		opt.MinLeaf = 1
	}
	t := &refTree{data: data, opt: opt}
	root := &refNode{members: make([]int, len(data))}
	for i := range data {
		root.members[i] = i
		root.sum += data[i].Y
		root.sumsq += data[i].Y * data[i].Y
	}
	t.root = root
	t.findBest(root)

	frontier := []*refNode{root}
	for t.Leaves() < opt.MaxLeaves {
		var best *refNode
		for _, n := range frontier {
			if n.bestGain > 1e-12 && (best == nil || n.bestGain > best.bestGain) {
				best = n
			}
		}
		if best == nil {
			break
		}
		t.applySplit(best)
		for i, n := range frontier {
			if n == best {
				frontier[i] = frontier[len(frontier)-1]
				frontier = frontier[:len(frontier)-1]
				break
			}
		}
		frontier = append(frontier, best.left, best.right)
	}
	return t
}

// cy is one nonzero observation of a feature: its sample count and the
// member's response.
type cy struct {
	c int
	y float64
}

// findBest computes the node's best (EIP, n) split by rebuilding the
// node's sparse feature index and scoring every feature in ascending-EIP
// order (ties between equally good splits break toward the lowest EIP).
func (t *refTree) findBest(n *refNode) {
	n.bestGain = 0
	m := len(n.members)
	if m < 2*t.opt.MinLeaf {
		return
	}
	parentSS := n.ss()
	if parentSS <= 1e-12 {
		return
	}

	// feature -> list of (count, y) for members where count > 0.
	feat := map[uint64][]cy{}
	for _, idx := range n.members {
		p := &t.data[idx]
		for e, c := range p.Counts {
			feat[e] = append(feat[e], cy{c, p.Y})
		}
	}

	order := make([]uint64, 0, len(feat))
	for e := range feat {
		order = append(order, e)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })

	for _, e := range order {
		gain, thr := t.scoreFeature(n, parentSS, feat[e])
		if gain > n.bestGain {
			n.bestGain = gain
			n.bestEIP = e
			n.bestN = thr
		}
	}
}

// scoreFeature scans one feature's candidate thresholds and returns the
// best achievable gain for this node along with its threshold (the first
// threshold in ascending order attaining that gain).
func (t *refTree) scoreFeature(n *refNode, parentSS float64, list []cy) (bestGain float64, bestThr int) {
	m := len(n.members)
	nz := m - len(list) // members with implicit zero count
	// Stable: equal counts stay in member order — the canonical
	// (count, row) order shared with the columnar kernel.
	sort.SliceStable(list, func(i, j int) bool { return list[i].c < list[j].c })

	var nzSum, nzSumsq float64
	for _, v := range list {
		nzSum += v.y
		nzSumsq += v.y * v.y
	}
	zeroSum := n.sum - nzSum
	zeroSumsq := n.sumsq - nzSumsq

	leftN := nz
	leftSum, leftSumsq := zeroSum, zeroSumsq
	i := 0
	for i <= len(list) {
		if leftN >= t.opt.MinLeaf && m-leftN >= t.opt.MinLeaf && leftN > 0 && leftN < m {
			rightN := m - leftN
			rightSum := n.sum - leftSum
			rightSumsq := n.sumsq - leftSumsq
			ssL := leftSumsq - leftSum*leftSum/float64(leftN)
			ssR := rightSumsq - rightSum*rightSum/float64(rightN)
			gain := parentSS - ssL - ssR
			if gain > bestGain {
				thr := 0
				if i > 0 {
					thr = list[i-1].c
				}
				bestGain = gain
				bestThr = thr
			}
		}
		if i == len(list) {
			break
		}
		c := list[i].c
		for i < len(list) && list[i].c == c {
			leftN++
			leftSum += list[i].y
			leftSumsq += list[i].y * list[i].y
			i++
		}
	}
	return bestGain, bestThr
}

// applySplit turns a leaf with a computed best split into an internal
// node, resolving each member's side through its sparse count map.
func (t *refTree) applySplit(n *refNode) {
	left := &refNode{}
	right := &refNode{}
	for _, idx := range n.members {
		p := &t.data[idx]
		if p.Counts[n.bestEIP] <= n.bestN {
			left.members = append(left.members, idx)
			left.sum += p.Y
			left.sumsq += p.Y * p.Y
		} else {
			right.members = append(right.members, idx)
			right.sum += p.Y
			right.sumsq += p.Y * p.Y
		}
	}
	n.split = &Split{EIP: n.bestEIP, N: n.bestN, Order: len(t.splits), Gain: n.bestGain}
	n.left, n.right = left, right
	t.splits = append(t.splits, n)
	t.findBest(left)
	t.findBest(right)
}

// PredictK routes a point through the k-chamber subtree.
func (t *refTree) PredictK(counts map[uint64]int, k int) float64 {
	n := t.root
	for n.split != nil && n.split.Order <= k-2 {
		if counts[n.split.EIP] <= n.split.N {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.mean()
}

// referenceCrossValidate runs the shared fold protocol with the
// reference kernel building each fold's tree.
func referenceCrossValidate(data Dataset, opt Options, folds int, seed uint64) (CVResult, error) {
	ys := make([]float64, len(data))
	for i := range data {
		ys[i] = data[i].Y
	}
	return crossValidate(nil, ys, opt, folds, seed, func(train []int32) foldPredictor {
		sub := make(Dataset, len(train))
		for j, i := range train {
			sub[j] = data[i]
		}
		t := referenceBuild(sub, opt)
		return func(row, k int) float64 {
			return t.PredictK(data[row].Counts, k)
		}
	})
}
