package rtree

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/xrand"
)

// Metamorphic tests: transformations of the input that must leave the
// tree and the RE curve unchanged, exactly or within a stated tolerance.

// mapData returns data with every response passed through fy and every
// EIP through fe.
func mapData(data Dataset, fy func(float64) float64, fe func(uint64) uint64) Dataset {
	out := make(Dataset, len(data))
	for i, p := range data {
		counts := make(map[uint64]int, len(p.Counts))
		for e, c := range p.Counts {
			counts[fe(e)] = c
		}
		out[i] = Point{Counts: counts, Y: fy(p.Y)}
	}
	return out
}

func sameEIP(e uint64) uint64    { return e }
func sameY(y float64) float64    { return y }
func relabelEIP(e uint64) uint64 { return 3*e + 17 }

// cvOf is CrossValidate over 5 folds, failing the test on error.
func cvOf(t *testing.T, data Dataset, opt Options, seed uint64) CVResult {
	t.Helper()
	cv, err := IndexDataset(data).CrossValidate(opt, 5, seed)
	if err != nil {
		t.Fatal(err)
	}
	return cv
}

// TestMetamorphicPowerOfTwoScale: multiplying every response by 2^j is
// exact in floating point, so every sum, gain and prediction scales
// exactly. Splits keep their EIP, threshold and order, gains scale by
// 4^j bit for bit, and the RE curve is bit-identical.
func TestMetamorphicPowerOfTwoScale(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := xrand.New(seed)
		data := wideSparseDataset(rng, 120+rng.Intn(80))
		opt := Options{MaxLeaves: 2 + rng.Intn(30), MinLeaf: 1 + rng.Intn(3)}
		base, baseCV := IndexDataset(data).Build(opt).Splits(), cvOf(t, data, opt, seed)
		for _, j := range []int{-2, 5} {
			label := fmt.Sprintf("seed %d scale 2^%d", seed, j)
			scaled := mapData(data, func(y float64) float64 { return math.Ldexp(y, j) }, sameEIP)
			want := make([]Split, len(base))
			for i, s := range base {
				s.Gain = math.Ldexp(s.Gain, 2*j)
				want[i] = s
			}
			sameSplits(t, want, IndexDataset(scaled).Build(opt).Splits(), label)
			cv := cvOf(t, scaled, opt, seed)
			if cv.KOpt != baseCV.KOpt || cv.KAsym != baseCV.KAsym || cv.REOpt != baseCV.REOpt ||
				cv.REAsym != baseCV.REAsym || cv.TotalVar != math.Ldexp(baseCV.TotalVar, 2*j) {
				t.Fatalf("%s: CV summary %+v, want %+v with TotalVar scaled", label, cv, baseCV)
			}
			for k := range cv.RE {
				if cv.RE[k] != baseCV.RE[k] {
					t.Fatalf("%s: RE[%d] = %v, want %v", label, k, cv.RE[k], baseCV.RE[k])
				}
			}
		}
	}
}

// TestMetamorphicEIPRelabel: an order-preserving relabelling of the EIPs
// keeps the dense feature order, so the tree is identical up to the new
// labels and the CV curve is bit-identical.
func TestMetamorphicEIPRelabel(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := xrand.New(seed)
		data := wideSparseDataset(rng, 120+rng.Intn(80))
		opt := Options{MaxLeaves: 2 + rng.Intn(30), MinLeaf: 1 + rng.Intn(3)}
		want := IndexDataset(data).Build(opt).Splits()
		for i := range want {
			want[i].EIP = relabelEIP(want[i].EIP)
		}
		relabelled := mapData(data, sameY, relabelEIP)
		label := fmt.Sprintf("seed %d relabel", seed)
		sameSplits(t, want, IndexDataset(relabelled).Build(opt).Splits(), label)
		baseCV, cv := cvOf(t, data, opt, seed), cvOf(t, relabelled, opt, seed)
		if fmt.Sprint(baseCV) != fmt.Sprint(cv) {
			t.Fatalf("%s: CV %+v, want %+v", label, cv, baseCV)
		}
	}
}

// separatedDataset plants three independent effects of sizes 4, 2 and 1
// on the presence of EIPs 10, 20 and 30, with noise of 0.01 and a few
// unrelated features. An eight-leaf tree cuts exactly the eight cells,
// and the gains it compares differ far beyond rounding.
func separatedDataset(rng *xrand.Rand, n int) Dataset {
	data := make(Dataset, n)
	for i := range data {
		counts := map[uint64]int{}
		y := 1.0
		for f, effect := range []float64{4, 2, 1} {
			if rng.Bool(0.5) {
				counts[uint64(10*(f+1))] = rng.Range(1, 3)
				y += effect
			}
		}
		for f := 4; f <= 8; f++ {
			if rng.Bool(0.3) {
				counts[uint64(10*f)] = rng.Range(1, 3)
			}
		}
		data[i] = Point{Counts: counts, Y: y + rng.Norm(0, 0.01)}
	}
	return data
}

// TestMetamorphicCPIShift: adding a constant to every response changes
// sums only by rounding. On data whose gains are well separated the
// splits keep their EIP, threshold and order, gains and the RE curve
// agree within 1e-9 relative error, and k_opt is unchanged.
func TestMetamorphicCPIShift(t *testing.T) {
	const tol = 1e-9
	near := func(a, b float64) bool { return math.Abs(a-b) <= tol*math.Abs(b) }
	for seed := uint64(1); seed <= 8; seed++ {
		rng := xrand.New(seed)
		data := separatedDataset(rng, 160+rng.Intn(80))
		opt := Options{MaxLeaves: 8, MinLeaf: 2}
		base, baseCV := IndexDataset(data).Build(opt).Splits(), cvOf(t, data, opt, seed)
		if len(base) != 7 {
			t.Fatalf("seed %d: %d splits, want the 7 that cut the planted cells", seed, len(base))
		}
		for _, c := range []float64{10, -0.75} {
			label := fmt.Sprintf("seed %d shift %v", seed, c)
			shifted := mapData(data, func(y float64) float64 { return y + c }, sameEIP)
			got := IndexDataset(shifted).Build(opt).Splits()
			for i := range base {
				b, g := base[i], got[i]
				if b.EIP != g.EIP || b.N != g.N || b.Order != g.Order || !near(g.Gain, b.Gain) {
					t.Fatalf("%s: split %d = %+v, want %+v", label, i, g, b)
				}
			}
			cv := cvOf(t, shifted, opt, seed)
			if cv.KOpt != baseCV.KOpt {
				t.Fatalf("%s: k_opt %d, want %d", label, cv.KOpt, baseCV.KOpt)
			}
			for k := range cv.RE {
				if !near(cv.RE[k], baseCV.RE[k]) {
					t.Fatalf("%s: RE[%d] = %v, want %v within %g", label, k, cv.RE[k], baseCV.RE[k], tol)
				}
			}
		}
	}
}
