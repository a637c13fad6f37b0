package kmeans

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// This file locks the dense-vector kernel to the reference kernel: on
// randomized sparse vector sets the two must produce identical
// clusterings (same assignment, sizes, Lloyd iteration count) and
// bit-identical PredictRE values. Any divergence in feature ordering,
// random draw sequence, or floating-point accumulation order shows up
// here as an exact-inequality failure.

// equivVectors builds adversarial sparse data: a small feature alphabet
// with overlapping blobs (so distances tie or nearly tie), duplicated
// rows (so empty-cluster re-seeding triggers), and CPIs loosely coupled
// to the blobs.
func equivVectors(rng *xrand.Rand, n, feats, maxCount int) ([]Vector, []float64) {
	vectors := make([]Vector, n)
	ys := make([]float64, n)
	for i := range vectors {
		v := Vector{}
		blob := rng.Intn(3)
		for f := 0; f < feats; f++ {
			if rng.Bool(0.4) {
				v[uint64(blob*feats+f)] = rng.Range(1, maxCount)
			}
		}
		if rng.Bool(0.2) && i > 0 {
			// Exact duplicate of an earlier row: distance ties are certain.
			v = Vector{}
			for f, c := range vectors[i-1] {
				v[f] = c
			}
		}
		vectors[i] = v
		ys[i] = float64(blob) + rng.Norm(0, 0.1)
	}
	return vectors, ys
}

func sameResult(t *testing.T, want, got *Result, label string) {
	t.Helper()
	if want.K != got.K || want.Iterations != got.Iterations {
		t.Fatalf("%s: K/Iterations differ: reference %d/%d, dense %d/%d",
			label, want.K, want.Iterations, got.K, got.Iterations)
	}
	for i := range want.Assign {
		if want.Assign[i] != got.Assign[i] {
			t.Fatalf("%s: assign[%d] = %d (reference) vs %d (dense)", label, i, want.Assign[i], got.Assign[i])
		}
	}
	for c := range want.Sizes {
		if want.Sizes[c] != got.Sizes[c] {
			t.Fatalf("%s: sizes[%d] = %d vs %d", label, c, want.Sizes[c], got.Sizes[c])
		}
	}
}

// TestEquivalenceCluster: identical clusterings and bit-identical RE on
// randomized vector sets across k and seed settings.
func TestEquivalenceCluster(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 20 + rng.Intn(120)
		feats := 2 + rng.Intn(12)
		maxCount := 1 + rng.Intn(40)
		vectors, ys := equivVectors(rng, n, feats, maxCount)
		k := 1 + rng.Intn(min(n, 12))

		ref, err1 := referenceCluster(vectors, k, seed, 40)
		dense, err2 := IndexVectors(vectors).Cluster(k, seed, 40)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		sameResult(t, ref, dense, "cluster")

		refRE := PredictRE(ref, ys)
		denseRE := PredictRE(dense, ys)
		if refRE != denseRE {
			t.Fatalf("seed %d: PredictRE %v (reference) vs %v (dense)", seed, refRE, denseRE)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestEquivalenceBestRE: the full §4.6 sweep agrees bit-for-bit at every
// worker count. maxK reaches 50, so the sparse grid points 26–50 and the
// largest-first hand-out are exercised.
func TestEquivalenceBestRE(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		vectors, ys := equivVectors(rng, 30+rng.Intn(120), 2+rng.Intn(8), 1+rng.Intn(25))
		maxK := 1 + rng.Intn(50)

		refRE, refK, err := referenceBestRE(vectors, ys, maxK, seed)
		if err != nil {
			t.Fatal(err)
		}
		m := IndexVectors(vectors)
		for _, workers := range []int{1, 2, 3, 8} {
			dRE, dK, err := m.BestREParallel(ys, maxK, seed, workers)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(refRE) != math.Float64bits(dRE) || refK != dK {
				t.Fatalf("seed %d, %d workers: BestRE (%v, %d) reference vs (%v, %d) dense",
					seed, workers, refRE, refK, dRE, dK)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestSeedingPrefix: the seeding for k centres is a prefix of the seeding
// for 50, so Cluster(k) equals Lloyd from the first k of 50 seed rows —
// the property that lets BestRE seed once per sweep.
func TestSeedingPrefix(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		rng := xrand.New(seed)
		vectors, _ := equivVectors(rng, 50+rng.Intn(100), 2+rng.Intn(12), 1+rng.Intn(30))
		m := IndexVectors(vectors)
		seeds := m.seedRows(50, seed)
		for _, k := range grid {
			want, err := m.Cluster(k, seed, 40)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, want, m.lloyd(seeds[:k], 40, &slab{}), fmt.Sprintf("seed %d, k %d", seed, k))
		}
	}
}

// TestEmptyClusterStaleNorms pins the re-seed quirk on a fixture found by
// random search: here the farthest-point search picks a different row if
// it reads every cluster's fresh |μ|² instead of the stale caches of the
// clusters at and above the empty one.
func TestEmptyClusterStaleNorms(t *testing.T) {
	vectors := []Vector{
		{0: 5, 1: 13}, {0: 5, 1: 13}, {0: 22, 1: 13}, {1: 1}, {0: 1},
		{0: 6, 1: 5}, {0: 6, 1: 5}, {0: 4}, {0: 1}, {0: 16, 1: 30}, {1: 14},
		{1: 8}, {1: 8}, {0: 5, 1: 4}, {0: 7, 1: 12}, {0: 9, 1: 2}, {0: 3},
		{0: 1, 1: 18}, {0: 7, 1: 18}, {0: 16, 1: 30}, {0: 5, 1: 1}, {0: 2}, {},
		{0: 11, 1: 21}, {1: 11}, {0: 5, 1: 4}, {0: 2, 1: 1}, {0: 5},
		{0: 4, 1: 14}, {0: 7, 1: 12}, {0: 11, 1: 21}, {0: 2, 1: 18},
	}
	const k, seed = 12, 35132
	ref, err := referenceCluster(vectors, k, seed, 40)
	if err != nil {
		t.Fatal(err)
	}
	got, err := IndexVectors(vectors).Cluster(k, seed, 40)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, ref, got, "stale-norm fixture")
}

// TestMatrixRoundTrip: the indexed form preserves rows, feature order and
// norms.
func TestMatrixRoundTrip(t *testing.T) {
	rng := xrand.New(3)
	vectors, _ := equivVectors(rng, 25, 6, 9)
	m := IndexVectors(vectors)
	if m.NumRows() != len(vectors) {
		t.Fatalf("NumRows = %d, want %d", m.NumRows(), len(vectors))
	}
	eips := m.EIPs()
	for i := 1; i < len(eips); i++ {
		if eips[i-1] >= eips[i] {
			t.Fatalf("EIPs not strictly ascending at %d: %v", i, eips[i-1:i+1])
		}
	}
	for r := range vectors {
		feat, cnt := m.Row(r)
		if len(feat) != len(vectors[r]) {
			t.Fatalf("row %d: %d features, want %d", r, len(feat), len(vectors[r]))
		}
		norm := 0.0
		for j, f := range feat {
			if j > 0 && feat[j-1] >= f {
				t.Fatalf("row %d features not ascending", r)
			}
			if got, want := int(cnt[j]), vectors[r][eips[f]]; got != want {
				t.Fatalf("row %d feature %d: count %d, want %d", r, f, got, want)
			}
			norm += float64(cnt[j]) * float64(cnt[j])
		}
		if norm != m.Norm2(r) {
			t.Fatalf("row %d: Norm2 %v, recomputed %v", r, m.Norm2(r), norm)
		}
	}
}

// TestIndexVectorsDropsNonPositive: zero/negative counts are equivalent
// to absent entries.
func TestIndexVectorsDropsNonPositive(t *testing.T) {
	m := IndexVectors([]Vector{{1: 3, 2: 0, 5: -4}, {1: 1}})
	if m.NumFeatures() != 1 {
		t.Fatalf("NumFeatures = %d, want 1 (only EIP 1 carries samples)", m.NumFeatures())
	}
	feat, cnt := m.Row(0)
	if len(feat) != 1 || cnt[0] != 3 {
		t.Fatalf("row 0 = (%v, %v)", feat, cnt)
	}
}
