package rtree

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/xrand"
)

// This file tests the gain-bound pruning in findBest. The property test
// grows trees the way Matrix.build does and, at every node, rescans each
// segment the node holds: the bound test must never skip a segment whose
// scan would reach the bar, and the node's chosen split must be the one
// an unpruned scan picks. The equivalence test runs the same data through
// the reference kernel.

// boundKinds are the response families of boundDataset.
var boundKinds = []string{"coarse", "negative", "offset"}

// boundDataset builds data aimed at the gain bound. Every row carries EIP
// 1, so its segment holds every member (s == m); a dozen more features
// range from rare to near-universal; about a fifth of the rows repeat an
// earlier row exactly, so gains tie exactly. kind picks the response:
// "coarse" has a few levels plus a planted signal, "negative" shifts that
// below zero, and "offset" is 1e6 + 1e-4·noise, where every gain the
// kernel computes is rounding noise.
func boundDataset(rng *xrand.Rand, n int, kind string) Dataset {
	data := make(Dataset, n)
	prev := make([]float64, 12)
	for f := range prev {
		prev[f] = 0.05 + 0.9*rng.Float64()
	}
	for i := range data {
		if i > 0 && rng.Bool(0.2) {
			data[i] = data[rng.Intn(i)]
			continue
		}
		counts := map[uint64]int{1: rng.Range(1, 3)}
		for f, p := range prev {
			if rng.Bool(p) {
				counts[uint64(10+f)] = rng.Range(1, 4)
			}
		}
		var y float64
		switch kind {
		case "coarse", "negative":
			y = float64(rng.Range(0, 6)) * 0.5
			if counts[1] > 1 {
				y += 1.5
			}
			if counts[12] > 2 {
				y -= 2
			}
			if kind == "negative" {
				y -= 10
			}
		case "offset":
			y = 1e6 + 1e-4*rng.Norm(0, 1)
		default:
			panic("boundDataset: unknown kind " + kind)
		}
		data[i] = Point{Counts: counts, Y: y}
	}
	return data
}

// boundMinLeaf picks the MinLeaf cases the bound tests cover: 1, 2, 5
// and a large one (a quarter of the rows).
func boundMinLeaf(rng *xrand.Rand, n int) int {
	return []int{1, 2, 5, n / 4}[rng.Intn(4)]
}

// boundCounts tallies what growChecked exercised.
type boundCounts struct{ segments, stale, skipped int }

// growChecked grows a tree over every row of m the way Matrix.build does
// and checks each node that still holds its column set once its split
// search has run. For every segment it rescans a copy (so stale sums stay
// as the kernel left them) and requires that the bound test, at a bar
// equal to that scan's gain, does not skip the segment; and it requires
// the node's split to be the one an unpruned ascending scan picks.
func growChecked(t *testing.T, m *Matrix, opt Options, tally *boundCounts) {
	t.Helper()
	b := getBuilder(m, opt)
	defer putBuilder(b)
	b.t = &Tree{m: m}
	b.rows = b.rows[:0]
	for i := 0; i < m.NumRows(); i++ {
		b.rows = append(b.rows, int32(i))
	}
	root := &node{hi: int32(len(b.rows))}
	for _, r := range b.rows {
		y := m.ys[r]
		root.sum += y
		root.sumsq += y * y
	}
	b.slack = boundSlack(root.count()) * root.sumsq
	root.cols = b.rootCols()

	check := func(n *node) {
		t.Helper()
		if n.cols == nil {
			return
		}
		parentSS := n.ss()
		bt := newBoundTest(n, opt.MinLeaf, b.slack)
		var best float64
		var bestFeat, bestN int32
		for _, sg := range n.cols.segs {
			tally.segments++
			if sg.stale {
				tally.stale++
			}
			scan := sg
			gain, thr := b.scoreFeature(n, parentSS, n.cols, &scan)
			if gain > best {
				best, bestFeat, bestN = gain, sg.feat, thr
			}
			bt.raise(gain)
			if gain > 0 && bt.skip(int(sg.end-sg.start), sg.nzSum, sg.nzSumsq) {
				t.Fatalf("feature %d: bound test skips a segment whose scan gains %v (m %d, s %d, stale %v)",
					sg.feat, gain, n.count(), sg.end-sg.start, sg.stale)
			}
		}
		if best != n.bestGain || (best > 0 && (bestFeat != n.bestFeat || bestN != n.bestN)) {
			t.Fatalf("pruned search chose feature %d n %d gain %v; unpruned scan chooses %d, %d, %v",
				n.bestFeat, n.bestN, n.bestGain, bestFeat, bestN, best)
		}
		bt.raise(best)
		for _, sg := range n.cols.segs {
			if bt.skip(int(sg.end-sg.start), sg.nzSum, sg.nzSumsq) {
				tally.skipped++
			}
		}
	}

	b.findBest(root, -1)
	check(root)
	frontier := []*node{root}
	for len(frontier) < opt.MaxLeaves {
		var best *node
		for _, n := range frontier {
			if n.bestGain > 1e-12 && (best == nil || n.bestGain > best.bestGain) {
				best = n
			}
		}
		if best == nil {
			break
		}
		b.applySplit(best)
		check(best.left)
		check(best.right)
		for i, n := range frontier {
			if n == best {
				frontier[i] = frontier[len(frontier)-1]
				frontier = frontier[:len(frontier)-1]
				break
			}
		}
		frontier = append(frontier, best.left, best.right)
	}
	for _, n := range frontier {
		b.releaseCols(n)
	}
}

// TestEquivalenceGainBound: on every data family and MinLeaf case the
// bound test never skips a segment that could reach the bar, and each
// node's pruned split search returns the unpruned scan's split. The run
// must reach stale segments and actually prune.
func TestEquivalenceGainBound(t *testing.T) {
	var tally boundCounts
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 30 + rng.Intn(150)
		kind := boundKinds[seed%uint64(len(boundKinds))]
		opt := Options{MaxLeaves: 2 + rng.Intn(40), MinLeaf: boundMinLeaf(rng, n)}
		growChecked(t, IndexDataset(boundDataset(rng, n, kind)), opt, &tally)
		// A wide, redundant feature space as well.
		opt.MinLeaf = 1 + rng.Intn(3)
		growChecked(t, IndexDataset(wideSparseDataset(rng, 120+rng.Intn(80))), opt, &tally)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	if tally.stale == 0 || tally.skipped == 0 {
		t.Fatalf("checked %d segments, %d stale, %d prunable: want stale and pruned segments",
			tally.segments, tally.stale, tally.skipped)
	}
}

// TestEquivalenceBoundData: the bound tests' data families — a feature in
// every row, exact-tie rows, negative responses, responses at 1e6 whose
// gains are rounding noise, MinLeaf from 1 to a quarter of the rows —
// grow bit-identical trees and CV curves in both kernels, serial and
// parallel.
func TestEquivalenceBoundData(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 40 + rng.Intn(140)
		kind := boundKinds[seed%uint64(len(boundKinds))]
		data := boundDataset(rng, n, kind)
		opt := Options{MaxLeaves: 2 + rng.Intn(30), MinLeaf: boundMinLeaf(rng, n)}
		label := fmt.Sprintf("seed %d kind %s minleaf %d", seed, kind, opt.MinLeaf)

		sameSplits(t, referenceBuild(data, opt).Splits(), IndexDataset(data).Build(opt).Splits(), label)
		ref, err := referenceCrossValidate(data, opt, 5, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 3} {
			popt := opt
			popt.Parallelism = p
			got, err := IndexDataset(data).CrossValidate(popt, 5, seed)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ref, got) {
				t.Fatalf("%s parallelism %d: CV differs:\nreference %+v\ncolumnar  %+v", label, p, ref, got)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentSize: the stale flag must fit in the segment's padding; a
// wider segment costs memory on the widest matrices.
func TestSegmentSize(t *testing.T) {
	if got := unsafe.Sizeof(segment{}); got != 32 {
		t.Fatalf("segment is %d bytes, want 32", got)
	}
}
