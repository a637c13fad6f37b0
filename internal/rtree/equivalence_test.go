package rtree

import (
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// This file locks the columnar kernel to the reference kernel: on
// randomized sparse datasets the two must produce bit-identical trees
// (same split sequence, same thresholds, same gain bits) and bit-identical
// cross-validation curves, at every Parallelism setting. Any divergence in
// feature ordering, tie-breaking, or floating-point accumulation order
// shows up here as an exact-inequality failure.

// equivDataset builds adversarial sparse data: a small count alphabet so
// runs of equal counts are long (stressing the stable (count, row) order),
// duplicated responses so gains tie exactly, and a planted signal so trees
// actually grow deep.
func equivDataset(rng *xrand.Rand, n, feats, maxCount int) Dataset {
	data := make(Dataset, n)
	for i := range data {
		counts := map[uint64]int{}
		for f := 0; f < feats; f++ {
			if rng.Bool(0.5) {
				counts[uint64(f*7+3)] = rng.Range(1, maxCount)
			}
		}
		y := float64(rng.Range(0, 8)) * 0.25 // coarse: exact ties are common
		if counts[3] > maxCount/2 {
			y += 2
		}
		data[i] = Point{Counts: counts, Y: y + rng.Norm(0, 0.1)}
	}
	return data
}

func sameSplits(t *testing.T, want, got []Split, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d splits vs %d", label, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: split %d differs: reference %+v, columnar %+v", label, i, want[i], got[i])
		}
	}
}

// TestEquivalenceBuild: identical split sequences (including exact gain
// bits) on randomized datasets across growth-parameter settings.
func TestEquivalenceBuild(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 40 + rng.Intn(160)
		feats := 2 + rng.Intn(20)
		maxCount := 2 + rng.Intn(30)
		data := equivDataset(rng, n, feats, maxCount)
		opt := Options{MaxLeaves: 2 + rng.Intn(30), MinLeaf: 1 + rng.Intn(4)}

		ref := referenceBuild(data, opt)
		csr := IndexDataset(data).Build(opt)
		sameSplits(t, ref.Splits(), csr.Splits(), "build")

		// Every point must land in the same chamber at every k.
		for k := 1; k <= opt.MaxLeaves; k++ {
			for i := range data {
				if ref.PredictK(data[i].Counts, k) != csr.PredictRowK(i, k) {
					t.Fatalf("seed %d: PredictK(%d, k=%d) differs", seed, i, k)
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestEquivalenceCrossValidate: bit-identical RE_k curves between the
// kernels, serial and parallel.
func TestEquivalenceCrossValidate(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		data := equivDataset(rng, 60+rng.Intn(120), 2+rng.Intn(15), 2+rng.Intn(20))
		opt := Options{MaxLeaves: 2 + rng.Intn(25), MinLeaf: 2}

		ref, err1 := referenceCrossValidate(data, opt, 5, seed)
		got, err2 := IndexDataset(data).CrossValidate(opt, 5, seed)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if ref.KOpt != got.KOpt || ref.REOpt != got.REOpt || ref.KAsym != got.KAsym {
			t.Fatalf("seed %d: summary differs: reference %+v, columnar %+v", seed, ref, got)
		}
		for k := range ref.RE {
			if ref.RE[k] != got.RE[k] {
				t.Fatalf("seed %d: RE[%d] = %v vs %v", seed, k, ref.RE[k], got.RE[k])
			}
		}

		popt := opt
		popt.Parallelism = 4
		par, err := IndexDataset(data).CrossValidate(popt, 5, seed)
		if err != nil {
			t.Fatal(err)
		}
		for k := range ref.RE {
			if ref.RE[k] != par.RE[k] {
				t.Fatalf("seed %d: parallel RE[%d] = %v vs %v", seed, k, par.RE[k], ref.RE[k])
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestEquivalenceParallelBuild: Build grows its tree serially whatever
// Options.Parallelism says, so on a wide feature space a tree built at
// Parallelism 8 matches both the serial columnar tree and the reference.
func TestEquivalenceParallelBuild(t *testing.T) {
	rng := xrand.New(99)
	// Wide feature space: hundreds of features present at the top nodes.
	data := make(Dataset, 250)
	for i := range data {
		counts := map[uint64]int{}
		for s := 0; s < 60; s++ {
			counts[uint64(rng.Intn(400))]++
		}
		y := 1.0
		if counts[7] > 0 {
			y = 3.0
		}
		data[i] = Point{Counts: counts, Y: y + rng.Norm(0, 0.3)}
	}
	opt := Options{MaxLeaves: 30, MinLeaf: 2}
	ref := referenceBuild(data, opt)
	serial := IndexDataset(data).Build(opt)
	popt := opt
	popt.Parallelism = 8
	parallel := IndexDataset(data).Build(popt)

	sameSplits(t, ref.Splits(), serial.Splits(), "serial")
	sameSplits(t, ref.Splits(), parallel.Splits(), "parallel")
}

// TestEquivalenceMatrixReuse: fold trees built from one shared Matrix must
// match trees built from per-fold map datasets (the reference protocol),
// even though the Matrix's feature universe includes test-only EIPs.
func TestEquivalenceMatrixReuse(t *testing.T) {
	rng := xrand.New(1234)
	data := equivDataset(rng, 150, 12, 10)
	m := IndexDataset(data)

	// Same matrix, many builds: pooled scratch must not leak state.
	first := m.Build(DefaultOptions()).Splits()
	for i := 0; i < 5; i++ {
		sameSplits(t, first, m.Build(DefaultOptions()).Splits(), "rebuild")
	}

	// Subset build vs reference build over the equivalent sub-dataset.
	var rows []int32
	var sub Dataset
	for i := 0; i < len(data); i += 2 {
		rows = append(rows, int32(i))
		sub = append(sub, data[i])
	}
	ref := referenceBuild(sub, DefaultOptions())
	got := m.build(rows, DefaultOptions())
	sameSplits(t, ref.Splits(), got.Splits(), "subset")
}

// TestIndexDatasetShape sanity-checks the map adapter: ascending EIP
// remap, zero- and negative-count entries dropped, row counts
// recoverable.
func TestIndexDatasetShape(t *testing.T) {
	data := Dataset{
		{Counts: map[uint64]int{9: 2, 4: 1, 100: 0, 7: -4}, Y: 1},
		{Counts: map[uint64]int{4: 7}, Y: 2},
		{Counts: map[uint64]int{}, Y: 3},
	}
	m := IndexDataset(data)
	if m.NumRows() != 3 || m.NumFeatures() != 2 {
		t.Fatalf("rows=%d features=%d, want 3 and 2 (non-positive counts dropped)", m.NumRows(), m.NumFeatures())
	}
	if m.EIPs()[0] != 4 || m.EIPs()[1] != 9 {
		t.Fatalf("EIP remap not ascending: %v", m.EIPs())
	}
	cases := []struct{ r, f, want int32 }{
		{0, 0, 1}, {0, 1, 2}, {1, 0, 7}, {1, 1, 0}, {2, 0, 0}, {2, 1, 0},
	}
	for _, c := range cases {
		if got := m.rowCount(c.r, c.f); got != c.want {
			t.Fatalf("rowCount(%d, %d) = %d, want %d", c.r, c.f, got, c.want)
		}
	}
	if m.Y(2) != 3 {
		t.Fatalf("Y(2) = %v", m.Y(2))
	}
	if cap(m.eips) != len(m.eips) {
		t.Fatalf("feature table holds %d EIPs in a %d-entry array", len(m.eips), cap(m.eips))
	}
}

// TestIndexRowsRejects: a row that breaks the row contract is an error
// naming it, never a panic or a silently malformed CSR.
func TestIndexRowsRejects(t *testing.T) {
	for _, tc := range []struct {
		name   string
		eips   []uint64
		counts []int64
	}{
		{"length mismatch", []uint64{1, 2}, []int64{1}},
		{"unsorted", []uint64{5, 3}, []int64{1, 1}},
		{"repeated EIP", []uint64{3, 3}, []int64{1, 1}},
		{"zero count", []uint64{3}, []int64{0}},
		{"negative count", []uint64{3}, []int64{-1}},
		{"count overflow", []uint64{3}, []int64{math.MaxInt32 + 1}},
	} {
		rows := [][]uint64{{1, 3}, tc.eips}
		counts := [][]int64{{2, 1}, tc.counts}
		_, err := IndexRows([]float64{1, 2}, func(i int) ([]uint64, []int64) { return rows[i], counts[i] })
		if err == nil || !strings.Contains(err.Error(), "row 1") {
			t.Errorf("%s: err %v, want an error naming row 1", tc.name, err)
		}
	}
	m, err := IndexRows([]float64{1, 2}, func(i int) ([]uint64, []int64) {
		return [][]uint64{{1, 3}, {}}[i], [][]int64{{2, math.MaxInt32}, {}}[i]
	})
	if err != nil || m.NumFeatures() != 2 || m.rowCount(0, 1) != math.MaxInt32 {
		t.Fatalf("valid rows: err %v", err)
	}
}

// wideSparseDataset builds data shaped like a server workload's EIPVs:
// a few common features with long runs of equal counts, hundreds of
// features seen once, and exact copies of some columns planted at EIPs
// both below and above their originals. The common features' prevalence
// varies from rare to near-universal, so either child of a split can be
// the smaller one.
func wideSparseDataset(rng *xrand.Rand, n int) Dataset {
	data := make(Dataset, n)
	for i := range data {
		data[i].Counts = map[uint64]int{}
	}
	eip := func(f int) uint64 { return uint64(1000 + 10*f) } // gaps leave room for copies
	common := 6 + rng.Intn(8)
	for f := 0; f < common; f++ {
		p := 0.05 + 0.9*rng.Float64()
		for i := range data {
			if rng.Bool(p) {
				data[i].Counts[eip(f)] = rng.Range(1, 3)
			}
		}
	}
	singles := 200 + rng.Intn(200)
	for f := common; f < common+singles; f++ {
		data[rng.Intn(n)].Counts[eip(f)] = rng.Range(1, 2)
	}
	for d := 0; d < 60; d++ {
		f := rng.Intn(common + singles)
		cp := eip(f) + 3
		if rng.Bool(0.5) {
			cp = eip(f) - 3
		}
		for i := range data {
			if c, ok := data[i].Counts[eip(f)]; ok {
				data[i].Counts[cp] = c
			}
		}
	}
	for i := range data {
		y := float64(rng.Range(0, 4)) * 0.25 // coarse: exact ties are common
		if data[i].Counts[eip(0)] > 1 {
			y += 2
		}
		if data[i].Counts[eip(1)] == 0 {
			y--
		}
		data[i].Y = y + rng.Norm(0, 0.05)
	}
	return data
}

// indexedColumns counts the features that keep a column in m's split
// index.
func indexedColumns(m *Matrix) int {
	n := 0
	for f := 0; f < m.NumFeatures(); f++ {
		if m.colStart[f] < m.colStart[f+1] {
			n++
		}
	}
	return n
}

// TestEquivalenceWideSparse drives the paths that only wide, redundant
// data reaches: duplicate columns left out of the index, scans over
// hundreds of a node's present features, and splits whose smaller side
// is either child. Trees and CV curves must match the reference bit for
// bit at Parallelism 1 and 4.
func TestEquivalenceWideSparse(t *testing.T) {
	smallerLeft, smallerRight := 0, 0
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		data := wideSparseDataset(rng, 120+rng.Intn(130))
		m := IndexDataset(data)
		if cols := indexedColumns(m); cols < 128 || cols == m.NumFeatures() {
			t.Fatalf("seed %d: %d indexed columns of %d features: want >= 128 and some duplicates",
				seed, cols, m.NumFeatures())
		}
		opt := Options{MaxLeaves: 2 + rng.Intn(40), MinLeaf: 1 + rng.Intn(3)}
		ref := referenceBuild(data, opt)
		refCV, err := referenceCrossValidate(data, opt, 5, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 4} {
			popt := opt
			popt.Parallelism = p
			got := m.Build(popt)
			sameSplits(t, ref.Splits(), got.Splits(), fmt.Sprintf("seed %d parallelism %d", seed, p))
			for _, n := range got.splits {
				if n.left.count() < n.right.count() {
					smallerLeft++
				} else if n.right.count() < n.left.count() {
					smallerRight++
				}
			}
			cv, err := m.CrossValidate(popt, 5, seed)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(refCV, cv) {
				t.Fatalf("seed %d parallelism %d: CV differs:\nreference %+v\ncolumnar  %+v", seed, p, refCV, cv)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
	if smallerLeft == 0 || smallerRight == 0 {
		t.Fatalf("smaller child was left %d times and right %d times: want both", smallerLeft, smallerRight)
	}
}

// withCopy returns data with feature e's counts copied under EIP to.
func withCopy(data Dataset, e, to uint64) Dataset {
	out := make(Dataset, len(data))
	for i, p := range data {
		counts := maps.Clone(p.Counts)
		if c, ok := counts[e]; ok {
			counts[to] = c
		}
		out[i] = Point{Counts: counts, Y: p.Y}
	}
	return out
}

// TestDuplicateColumnRule is metamorphic: copying a feature under a
// higher, unused EIP must leave the tree and the CV curve bit-identical,
// and copying it under a lower one may change only the EIP of splits
// that used the original, which now name the copy. Either way the row
// CSR still lists the copy.
func TestDuplicateColumnRule(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		data := wideSparseDataset(rng, 120+rng.Intn(80))
		opt := Options{MaxLeaves: 2 + rng.Intn(30), MinLeaf: 2, Parallelism: 1 + rng.Intn(4)}
		m := IndexDataset(data)
		base := m.Build(opt).Splits()
		baseCV, err := m.CrossValidate(opt, 5, seed)
		if err != nil {
			t.Fatal(err)
		}

		// The root split's feature half the time, so the lower copy
		// really takes over a split; any feature otherwise.
		e := base[0].EIP
		if rng.Bool(0.5) {
			e = m.EIPs()[rng.Intn(m.NumFeatures())]
		}
		for _, to := range []uint64{e + 1, e - 1} { // 1000+10f±3 leaves both unused
			cm := IndexDataset(withCopy(data, e, to))
			want := slices.Clone(base)
			if to < e {
				for i := range want {
					if want[i].EIP == e {
						want[i].EIP = to
					}
				}
			}
			sameSplits(t, want, cm.Build(opt).Splits(), fmt.Sprintf("seed %d copy %#x->%#x", seed, e, to))
			cv, err := cm.CrossValidate(opt, 5, seed)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(baseCV, cv) {
				t.Fatalf("seed %d copy %#x->%#x: CV changed", seed, e, to)
			}

			fo, _ := slices.BinarySearch(cm.EIPs(), e)
			fc, _ := slices.BinarySearch(cm.EIPs(), to)
			rowStart, rowFeat, rowCnt := cm.RowCSR()
			for r := 0; r < cm.NumRows(); r++ {
				var co, cc int32
				for k := rowStart[r]; k < rowStart[r+1]; k++ {
					switch int(rowFeat[k]) {
					case fo:
						co = rowCnt[k]
					case fc:
						cc = rowCnt[k]
					}
				}
				if co != cc {
					t.Fatalf("seed %d: row %d lists EIP %#x with count %d but its copy %#x with %d", seed, r, e, co, to, cc)
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
