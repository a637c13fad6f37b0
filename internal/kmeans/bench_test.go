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
		m := indexVectors(vectors) // once per dataset in production; amortized here
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
			if _, err := indexVectors(vectors).Cluster(k, seed, maxIter); err != nil {
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

// sjasVectors mimics sjas, the widest workload: n rows over about 27k
// features with about 254k nonzeros, of which dense features are present
// in every row. Dense columns are what the Gram matrix's build cost
// depends on (Σ_f n_f² for n_f rows holding feature f).
func sjasVectors(n, dense, sparse, perRow int) ([]Vector, []float64) {
	rng := xrand.New(7)
	vectors := make([]Vector, n)
	ys := make([]float64, n)
	for i := range vectors {
		v := Vector{}
		for f := 0; f < dense; f++ {
			v[uint64(f)] = rng.Range(1, 60)
		}
		for s := 0; s < perRow; s++ {
			v[uint64(dense+rng.Intn(sparse))] += rng.Range(1, 4)
		}
		vectors[i] = v
		ys[i] = 1.0 + 0.01*float64(v[5]) - 0.02*float64(v[uint64(dense+11)]) + rng.Norm(0, 0.05)
	}
	return vectors, ys
}

// BenchmarkKMeansBestRE sweeps the §4.6 k grid on two matrix shapes: q2,
// like odb-h.q2's (310 rows, about 2.6k features, about 24k nonzeros),
// and sjas, like sjas's (311 rows, about 27k features, about 254k
// nonzeros, 200 features in every row). Each sub-benchmark indexes a
// fresh Matrix outside the timer, so the Gram matrix is built inside it.
func BenchmarkKMeansBestRE(b *testing.B) {
	q2, q2ys := benchVectors(310, 2600, 10)
	sjas, sjasys := sjasVectors(311, 200, 26200, 620)
	shapes := []struct {
		name    string
		vectors []Vector
		ys      []float64
	}{{"q2", q2, q2ys}, {"sjas", sjas, sjasys}}

	for _, sh := range shapes {
		for _, workers := range []int{1, runtime.NumCPU()} {
			b.Run(fmt.Sprintf("%s/workers=%d", sh.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					m := indexVectors(sh.vectors)
					b.StartTimer()
					if _, _, err := bestREOn(m, sh.ys, 50, 1, workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	b.Run("q2/reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := referenceBestRE(q2, q2ys, 50, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}
