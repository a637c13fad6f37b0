package kmeans

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/xrand"
)

// benchVectors mimics the paper's workload shape: a few hundred intervals,
// a few hundred distinct EIPs, tens of nonzero EIPs per interval.
func benchVectors(n, feats, perRow int) ([]Vector, []float64) {
	rng := xrand.New(42)
	vectors := make([]Vector, n)
	ys := make([]float64, n)
	for i := range vectors {
		v := Vector{}
		for s := 0; s < perRow*8; s++ {
			v[uint64(rng.Intn(feats))]++
		}
		vectors[i] = v
		ys[i] = 1.0 + 0.02*float64(v[3]) - 0.01*float64(v[11]) + rng.Norm(0, 0.05)
	}
	return vectors, ys
}

func BenchmarkKMeansCluster(b *testing.B) {
	vectors, _ := benchVectors(320, 400, 40)
	const k, seed, maxIter = 12, 1, 40

	b.Run("dense", func(b *testing.B) {
		m := IndexVectors(vectors) // once per dataset in production; amortized here
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.Cluster(k, seed, maxIter); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dense-with-index", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Cluster(vectors, k, seed, maxIter); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := referenceCluster(vectors, k, seed, maxIter); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkKMeansBestRE sweeps the §4.6 k grid on a matrix shaped like
// odb-h.q2's: 310 rows, about 2.6k features, about 24k nonzeros.
func BenchmarkKMeansBestRE(b *testing.B) {
	vectors, ys := benchVectors(310, 2600, 10)

	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			m := IndexVectors(vectors)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := m.BestREParallel(ys, 50, 1, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := referenceBestRE(vectors, ys, 50, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}
