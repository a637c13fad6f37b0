package rtree

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// CrossValidate is CrossValidateCtx without cancellation.
func (m *Matrix) CrossValidate(opt Options, folds int, seed uint64) (CVResult, error) {
	return m.CrossValidateCtx(nil, opt, folds, seed)
}

func TestTable1ExampleTree(t *testing.T) {
	// The paper's Figure 1: root (EIP0, 20), left child (EIP2, 60), right
	// child (EIP1, 0), four chambers.
	tree := ExampleMatrix().Build(Options{MaxLeaves: 4, MinLeaf: 1})
	if tree.Leaves() != 4 {
		t.Fatalf("leaves = %d", tree.Leaves())
	}
	splits := tree.Splits()
	if splits[0].EIP != 0 || splits[0].N != 20 {
		t.Fatalf("root split = (EIP%d, %d), want (EIP0, 20)", splits[0].EIP, splits[0].N)
	}
	want := map[uint64]int{2: 60, 1: 0}
	for _, sp := range splits[1:] {
		n, ok := want[sp.EIP]
		if !ok || n != sp.N {
			t.Fatalf("unexpected subtree split (EIP%d, %d); want (EIP2,60) and (EIP1,0)", sp.EIP, sp.N)
		}
		delete(want, sp.EIP)
	}
	// Chamber means: {2.0,2.1}=2.05 {2.6,2.5}=2.55 {1.0,1.1}=1.05 {0.6,0.7}=0.65.
	cases := []struct {
		idx  int
		want float64
	}{
		{4, 2.05}, {5, 2.05}, {2, 2.55}, {6, 2.55},
		{0, 1.05}, {1, 1.05}, {3, 0.65}, {7, 0.65},
	}
	for _, c := range cases {
		got := tree.PredictRowK(c.idx, tree.Leaves())
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("PredictRowK(EIPV%d) = %v, want %v", c.idx, got, c.want)
		}
	}
}

func TestPredictKNesting(t *testing.T) {
	data := ExampleTable1()
	tree := ExampleMatrix().Build(Options{MaxLeaves: 4, MinLeaf: 1})
	// k=1: global mean.
	mean := 0.0
	for _, r := range data {
		mean += r.CPI
	}
	mean /= float64(len(data))
	if got := tree.PredictRowK(0, 1); math.Abs(got-mean) > 1e-9 {
		t.Fatalf("PredictRowK(1) = %v, want global mean %v", got, mean)
	}
	// k=2: the root split's side means.
	if got := tree.PredictRowK(0, 2); math.Abs(got-0.85) > 1e-9 {
		t.Fatalf("PredictRowK(2) right side = %v, want 0.85", got)
	}
	if got := tree.PredictRowK(2, 2); math.Abs(got-2.3) > 1e-9 {
		t.Fatalf("PredictRowK(2) left side = %v, want 2.3", got)
	}
}

func TestInSampleREMonotone(t *testing.T) {
	// Within-SS can only shrink as chambers are added.
	rng := xrand.New(1)
	data := randomDataset(rng, 200, 30, 0.5)
	tree := indexMap(data).Build(DefaultOptions())
	prev := math.Inf(1)
	for k := 1; k <= tree.Leaves(); k++ {
		re := tree.InSampleRE(k)
		if re > prev+1e-9 {
			t.Fatalf("in-sample RE rose at k=%d: %v -> %v", k, prev, re)
		}
		prev = re
	}
	if tree.InSampleRE(1) < 0.999 {
		t.Fatalf("InSampleRE(1) = %v, want 1", tree.InSampleRE(1))
	}
}

// randomDataset builds points whose Y depends on a hidden feature plus
// noise.
func randomDataset(rng *xrand.Rand, n, feats int, noise float64) mapDataset {
	data := make(mapDataset, n)
	for i := range data {
		counts := map[uint64]int{}
		for f := 0; f < feats; f++ {
			if rng.Bool(0.4) {
				counts[uint64(f)] = rng.Range(1, 100)
			}
		}
		y := 1.0
		if counts[3] > 50 {
			y = 3.0
		}
		data[i] = mapPoint{Counts: counts, Y: y + rng.Norm(0, noise)}
	}
	return data
}

func TestRecoversPlantedSignal(t *testing.T) {
	// A strongly feature-determined CPI must yield low cross-validation
	// error and a tree that splits on the planted feature.
	rng := xrand.New(2)
	data := randomDataset(rng, 400, 20, 0.05)
	tree := indexMap(data).Build(DefaultOptions())
	if tree.Splits()[0].EIP != 3 {
		t.Fatalf("root split on EIP %d, want planted feature 3", tree.Splits()[0].EIP)
	}
	res, err := indexMap(data).CrossValidate(DefaultOptions(), 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.REOpt > 0.15 {
		t.Fatalf("REOpt = %v for planted signal, want <= 0.15", res.REOpt)
	}
	if res.ExplainedVariance() < 0.85 {
		t.Fatalf("explained variance %v", res.ExplainedVariance())
	}
	if res.KOpt < 2 {
		t.Fatalf("KOpt = %d", res.KOpt)
	}
}

func TestNoSignalMeansHighRE(t *testing.T) {
	// Features independent of Y: cross-validation error must be ~>= 1.
	rng := xrand.New(3)
	data := make(mapDataset, 300)
	for i := range data {
		counts := map[uint64]int{}
		for f := 0; f < 25; f++ {
			if rng.Bool(0.5) {
				counts[uint64(f)] = rng.Range(1, 50)
			}
		}
		data[i] = mapPoint{Counts: counts, Y: rng.Norm(2, 0.3)}
	}
	res, err := indexMap(data).CrossValidate(DefaultOptions(), 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.REOpt < 0.85 {
		t.Fatalf("REOpt = %v for pure noise, want ~1", res.REOpt)
	}
	// The paper's ODB-C observation: more chambers can make CV error
	// exceed 1 on unrelated features.
	if res.RE[len(res.RE)-1] < res.RE[0] {
		t.Fatalf("RE curve fell with k on pure noise: %v .. %v", res.RE[0], res.RE[len(res.RE)-1])
	}
}

func TestConstantCPI(t *testing.T) {
	data := make(mapDataset, 50)
	for i := range data {
		data[i] = mapPoint{Counts: map[uint64]int{1: i}, Y: 1.5}
	}
	res, err := indexMap(data).CrossValidate(DefaultOptions(), 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.KOpt != 1 || res.REOpt != 0 || res.REAsym != 0 {
		t.Fatalf("constant-CPI result = %+v", res)
	}
	tree := indexMap(data).Build(DefaultOptions())
	if tree.Leaves() != 1 {
		t.Fatalf("tree split constant data into %d leaves", tree.Leaves())
	}
}

func TestMinLeafRespected(t *testing.T) {
	rng := xrand.New(5)
	data := randomDataset(rng, 100, 10, 0.2)
	opt := Options{MaxLeaves: 50, MinLeaf: 10}
	tree := indexMap(data).Build(opt)
	var check func(n *node) int
	check = func(n *node) int {
		if n.split == nil {
			if n.count() < opt.MinLeaf {
				t.Fatalf("leaf with %d < %d members", n.count(), opt.MinLeaf)
			}
			return 1
		}
		return check(n.left) + check(n.right)
	}
	leaves := check(tree.root)
	if leaves != tree.Leaves() {
		t.Fatalf("leaf census %d != Leaves() %d", leaves, tree.Leaves())
	}
}

func TestCrossValidateDeterministic(t *testing.T) {
	rng := xrand.New(6)
	data := randomDataset(rng, 150, 15, 0.3)
	a, err1 := indexMap(data).CrossValidate(DefaultOptions(), 10, 42)
	b, err2 := indexMap(data).CrossValidate(DefaultOptions(), 10, 42)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for k := range a.RE {
		if a.RE[k] != b.RE[k] {
			t.Fatalf("nondeterministic CV at k=%d", k+1)
		}
	}
}

func TestCrossValidateErrors(t *testing.T) {
	if _, err := indexMap(make(mapDataset, 5)).CrossValidate(DefaultOptions(), 10, 1); err == nil {
		t.Fatal("tiny dataset did not error")
	}
	if _, err := indexMap(make(mapDataset, 100)).CrossValidate(DefaultOptions(), 1, 1); err == nil {
		t.Fatal("folds=1 did not error")
	}
	for _, leaves := range []int{0, -3} {
		opt := DefaultOptions()
		opt.MaxLeaves = leaves
		if _, err := indexMap(make(mapDataset, 100)).CrossValidate(opt, 10, 1); err == nil {
			t.Fatalf("MaxLeaves=%d did not error", leaves)
		}
	}
}

func TestSplitPartitionProperty(t *testing.T) {
	// Property: for any dataset, every point lands in exactly one chamber
	// and chamber means reproduce the training targets' partition means.
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		data := randomDataset(rng, 60+rng.Intn(100), 8, 0.4)
		tree := indexMap(data).Build(Options{MaxLeaves: 8, MinLeaf: 2})
		// Group points by their full-tree prediction.
		groups := map[float64][]float64{}
		for i, p := range data {
			pred := tree.PredictRowK(i, tree.Leaves())
			groups[pred] = append(groups[pred], p.Y)
		}
		for pred, ys := range groups {
			sum := 0.0
			for _, y := range ys {
				sum += y
			}
			if math.Abs(sum/float64(len(ys))-pred) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestGainsDecreaseInGrowthOrder(t *testing.T) {
	// Best-first growth: each applied split's gain cannot exceed the
	// previous split's gain... except when a fresh child exposes a better
	// split than any current frontier leaf had. What MUST hold: the first
	// split has the globally largest single-split gain.
	rng := xrand.New(9)
	data := randomDataset(rng, 300, 20, 0.3)
	tree := indexMap(data).Build(DefaultOptions())
	splits := tree.Splits()
	if len(splits) < 2 {
		t.Skip("degenerate tree")
	}
	for _, sp := range splits[1:] {
		if sp.Gain > splits[0].Gain+1e-9 {
			t.Fatalf("later split gain %v exceeds root gain %v", sp.Gain, splits[0].Gain)
		}
	}
}

func TestREZeroWhenPerfectlyPredictable(t *testing.T) {
	// Y a deterministic two-level function of features: with enough data,
	// CV error should be near zero.
	data := make(mapDataset, 200)
	rng := xrand.New(11)
	for i := range data {
		a, b := rng.Range(0, 100), rng.Range(0, 100)
		y := 1.0
		if a > 50 {
			y = 2.0
		}
		if b > 70 {
			y += 0.5
		}
		data[i] = mapPoint{Counts: map[uint64]int{1: a, 2: b}, Y: y}
	}
	res, err := indexMap(data).CrossValidate(DefaultOptions(), 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.REOpt > 0.05 {
		t.Fatalf("REOpt = %v for deterministic Y", res.REOpt)
	}
	if res.KAsym > 8 {
		t.Fatalf("KAsym = %d for a 4-chamber truth", res.KAsym)
	}
}

func BenchmarkBuildSparse(b *testing.B) {
	rng := xrand.New(1)
	// Server-workload shape: 300 intervals, ~100 samples each over a huge
	// EIP space.
	data := make(mapDataset, 300)
	for i := range data {
		counts := map[uint64]int{}
		for s := 0; s < 100; s++ {
			counts[uint64(rng.Intn(20000))]++
		}
		data[i] = mapPoint{Counts: counts, Y: rng.Norm(2, 0.2)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		indexMap(data).Build(DefaultOptions())
	}
}
