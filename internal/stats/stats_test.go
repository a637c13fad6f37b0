package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestAccBasics(t *testing.T) {
	var a Acc
	if a.N() != 0 || a.Mean() != 0 || a.Var() != 0 {
		t.Fatal("zero-value Acc not empty")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.N() != 8 {
		t.Fatalf("N = %d, want 8", a.N())
	}
	if !almostEq(a.Mean(), 5, 1e-12) {
		t.Fatalf("Mean = %v, want 5", a.Mean())
	}
	if !almostEq(a.Var(), 4, 1e-12) {
		t.Fatalf("Var = %v, want 4", a.Var())
	}
	if !almostEq(a.SampleVar(), 32.0/7.0, 1e-12) {
		t.Fatalf("SampleVar = %v, want %v", a.SampleVar(), 32.0/7.0)
	}
}

func TestAccMatchesSliceFunctions(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 1 + r.Intn(200)
		xs := make([]float64, n)
		var a Acc
		for i := range xs {
			xs[i] = r.Norm(3, 10)
			a.Add(xs[i])
		}
		return almostEq(a.Mean(), Mean(xs), 1e-9) && almostEq(a.Var(), Var(xs), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVarEdgeCases(t *testing.T) {
	if Var(nil) != 0 {
		t.Fatal("Var(nil) != 0")
	}
	if Var([]float64{7}) != 0 {
		t.Fatal("Var of single element != 0")
	}
	var a Acc
	a.Add(7)
	if a.SampleVar() != 0 {
		t.Fatal("SampleVar of single element != 0")
	}
}
