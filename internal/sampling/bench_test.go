package sampling

import (
	"testing"

	"repro/internal/xrand"
)

func BenchmarkSamplingEvaluate(b *testing.B) {
	rng := xrand.New(42)
	vectors, cpis := randomVectors(rng, 320, 120, 40)
	mtx := indexVectors(vectors)

	b.Run("dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Evaluate(cpis, mtx, 8, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The representative search alone, dense vs. the retained map oracle.
	res, err := mtx.Cluster(8, 1, 40)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("representatives-dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			representatives(res, mtx)
		}
	})
	b.Run("representatives-reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			referenceRepresentatives(res, vectors)
		}
	})
}

// BenchmarkTwoPhase isolates the two-phase estimator — the §7 technique
// whose pilot + Neyman reallocation adds work over plain stratified —
// against stratified at the same budget, both including their clustering
// phase as Estimate runs them.
func BenchmarkTwoPhase(b *testing.B) {
	rng := xrand.New(42)
	vectors, cpis := randomVectors(rng, 320, 120, 40)
	mtx := indexVectors(vectors)
	for _, bench := range []struct {
		name string
		tech Technique
	}{{"two-phase", TwoPhase}, {"stratified", Stratified}} {
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := Estimate(bench.tech, cpis, mtx, 16, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
