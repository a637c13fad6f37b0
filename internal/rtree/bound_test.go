package rtree

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/xrand"
)

// This file tests the screen in findBest: the gain-bound skip and the
// candidate cut on approximate histograms. The property test grows trees
// the way Matrix.build does and, at every node, scores every group the
// node holds exactly: the screened search must return the split an
// unscreened exact scan picks, the node's histogram must hold exactly the
// groups and member counts a fresh scatter of its rows gives, and each
// group's approximate best gain must be within slack of its exact one.
// The equivalence test runs the same data through the reference kernel.

// boundKinds are the response families of boundDataset.
var boundKinds = []string{"coarse", "negative", "offset"}

// boundDataset builds data aimed at the gain bound. Every row carries EIP
// 1, so its group holds every member (s == m); a dozen more features
// range from rare to near-universal; about a fifth of the rows repeat an
// earlier row exactly, so gains tie exactly. kind picks the response:
// "coarse" has a few levels plus a planted signal, "negative" shifts that
// below zero, and "offset" is 1e6 + 1e-4·noise, where every gain the
// kernel computes is rounding noise.
func boundDataset(rng *xrand.Rand, n int, kind string) mapDataset {
	data := make(mapDataset, n)
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
		data[i] = mapPoint{Counts: counts, Y: y}
	}
	return data
}

// boundMinLeaf picks the MinLeaf cases the bound tests cover: 1, 2, 5
// and a large one (a quarter of the rows).
func boundMinLeaf(rng *xrand.Rand, n int) int {
	return []int{1, 2, 5, n / 4}[rng.Intn(4)]
}

// boundCounts tallies what growChecked exercised: the groups checked,
// those the bound test skips and those the candidate cut leaves out at
// the node's final bar, and the groups a larger child kept with the
// smaller child's bins subtracted.
type boundCounts struct{ groups, skipped, cut, subtracted int }

// growChecked grows a tree over the given rows of m the way Matrix.build
// does, its root made from shared when that is not nil, and checks each
// node once its split search has run.
func growChecked(t *testing.T, m *Matrix, rows []int32, shared *rootHist, opt Options, tally *boundCounts) {
	t.Helper()
	b := getBuilder(m, opt)
	defer putBuilder(b)
	b.t = &Tree{m: m}
	b.rows = append(b.rows[:0], rows...)
	root := &node{hi: int32(len(b.rows))}
	for _, r := range b.rows {
		y := m.ys[r]
		root.sum += y
		root.sumsq += y * y
	}
	root.set = b.rootSet(root, shared)

	check := func(n *node) {
		t.Helper()
		parentSS := n.ss()
		if n.count() < 2*opt.MinLeaf || parentSS <= 1e-12 {
			if n.set != nil || n.bestGain != 0 {
				t.Fatalf("node of %d members and SS %v keeps a histogram or a split", n.count(), parentSS)
			}
			return
		}
		fresh := &binSet{}
		m.scatter(fresh, b.rows[n.lo:n.hi], opt.MinLeaf)
		var live []group // the node's groups of at least MinLeaf members
		if n.set != nil {
			for _, g := range n.set.groups {
				if int(g.n) >= opt.MinLeaf {
					live = append(live, g)
				}
			}
			if len(live) != len(fresh.groups) {
				t.Fatalf("node holds %d groups, a fresh scatter %d", len(live), len(fresh.groups))
			}
			for i, g := range live {
				fg := fresh.groups[i]
				if g.feat != fg.feat || g.n != fg.n {
					t.Fatalf("group %d is feature %d of %d members, a fresh scatter's feature %d of %d", i, g.feat, g.n, fg.feat, fg.n)
				}
				for j := range m.numBins(g.feat) {
					if got, want := n.set.bins[g.bin+j].n, fresh.bins[fg.bin+j].n; got != want {
						t.Fatalf("feature %d bin %d holds %d members, want %d", g.feat, j, got, want)
					}
				}
			}
		} else if n.bestGain != 0 {
			t.Fatalf("node released its histogram with a split of gain %v", n.bestGain)
		}

		// The unscreened exact scan, and each group's screen error.
		var best float64
		var bestFeat, bestN int32
		approx := math.Inf(-1)
		for i := range fresh.groups {
			tally.groups++
			g := &fresh.groups[i]
			gain, thr := b.exactScore(n, parentSS, fresh, g)
			if gain > best {
				best, bestFeat, bestN = gain, g.feat, thr
			}
			if n.set == nil {
				continue
			}
			a := b.screenScore(n, parentSS, n.set, &live[i])
			approx = max(approx, a)
			if gain > 0 && math.Abs(a-gain) > n.set.slack {
				t.Fatalf("feature %d: approximate gain %v, exact %v: off by more than the slack %v", g.feat, a, gain, n.set.slack)
			}
		}
		if best != n.bestGain || (best > 0 && (bestFeat != n.bestFeat || bestN != n.bestN)) {
			t.Fatalf("screened search chose feature %d n %d gain %v; unscreened exact scan chooses %d, %d, %v",
				n.bestFeat, n.bestN, n.bestGain, bestFeat, bestN, best)
		}
		if n.set == nil {
			return
		}
		bt := newBoundTest(n, opt.MinLeaf, n.set.slack)
		bt.raise(approx)
		for i := range live {
			g := &live[i]
			if bt.skip(int(g.n), g.sum, g.sumsq) {
				tally.skipped++
			} else if b.screenScore(n, parentSS, n.set, g) < approx-2*n.set.slack {
				tally.cut++
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
		before := map[int32]int32{}
		for _, g := range best.set.groups {
			before[g.feat] = g.n
		}
		set := best.set
		b.applySplit(best)
		for _, child := range []*node{best.left, best.right} {
			if child.set == set {
				for _, g := range set.groups {
					if g.n < before[g.feat] {
						tally.subtracted++
					}
				}
			}
		}
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
		b.releaseSet(n)
	}
}

// TestEquivalenceGainBound: on every data family and MinLeaf case each
// node's screened split search returns the unscreened exact scan's
// split, and every approximate gain is within slack of its exact gain,
// over every row and over a fold's rows with the root taken from the
// shared histogram of every row. The run must screen groups out both
// ways and reach subtracted sums.
func TestEquivalenceGainBound(t *testing.T) {
	var tally boundCounts
	grow := func(rng *xrand.Rand, m *Matrix, opt Options) {
		var all, fold []int32
		for r := range int32(m.NumRows()) {
			all = append(all, r)
			if rng.Bool(0.8) {
				fold = append(fold, r)
			}
		}
		growChecked(t, m, all, nil, opt, &tally)
		growChecked(t, m, fold, m.rootHist(opt.MinLeaf), opt, &tally)
	}
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 30 + rng.Intn(150)
		kind := boundKinds[seed%uint64(len(boundKinds))]
		opt := Options{MaxLeaves: 2 + rng.Intn(40), MinLeaf: boundMinLeaf(rng, n)}
		grow(rng, indexMap(boundDataset(rng, n, kind)), opt)
		// A wide, redundant feature space as well.
		opt.MinLeaf = 1 + rng.Intn(3)
		grow(rng, indexMap(wideSparseDataset(rng, 120+rng.Intn(80))), opt)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	if tally.skipped == 0 || tally.cut == 0 || tally.subtracted == 0 {
		t.Fatalf("checked %d groups: %d skipped by the bound, %d cut, %d subtracted: want all three",
			tally.groups, tally.skipped, tally.cut, tally.subtracted)
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

		sameSplits(t, referenceBuild(data, opt).Splits(), indexMap(data).Build(opt).Splits(), label)
		ref, err := referenceCrossValidate(data, opt, 5, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 3} {
			popt := opt
			popt.Parallelism = p
			got, err := indexMap(data).CrossValidate(popt, 5, seed)
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

// TestHistogramSize pins the histogram's element sizes: a wider group
// or bin costs memory and scan time on the widest matrices.
func TestHistogramSize(t *testing.T) {
	if got := unsafe.Sizeof(group{}); got != 32 {
		t.Fatalf("group is %d bytes, want 32", got)
	}
	if got := unsafe.Sizeof(bin{}); got != 24 {
		t.Fatalf("bin is %d bytes, want 24", got)
	}
}
