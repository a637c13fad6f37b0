package rtree

import (
	"testing"

	"repro/internal/xrand"
)

// benchDataset mimics the paper's workload shape: ~1000 intervals, a few
// hundred distinct EIPs, tens of nonzero EIPs per interval.
func benchDataset(n, feats, perRow int) Dataset {
	rng := xrand.New(42)
	data := make(Dataset, n)
	for i := range data {
		counts := map[uint64]int{}
		for s := 0; s < perRow*8; s++ {
			counts[uint64(rng.Intn(feats))]++
		}
		y := 1.0 + 0.02*float64(counts[3]) - 0.01*float64(counts[11])
		data[i] = Point{Counts: counts, Y: y + rng.Norm(0, 0.05)}
	}
	return data
}

// wideDataset mimics odb-c's shape: ~310 intervals over ~15k distinct
// EIPs with ~2 nonzeros per column, half of the columns single-entry
// columns that exactly repeat a neighbouring EIP's (an EIP seen once, in
// the same interval, with the same count), plus a few dozen common EIPs.
func wideDataset() Dataset {
	const n, pairs, others, common = 310, 3750, 7500, 50
	rng := xrand.New(43)
	data := make(Dataset, n)
	for i := range data {
		data[i].Counts = map[uint64]int{}
	}
	e := uint64(0)
	for f := 0; f < pairs; f++ {
		r, c := rng.Intn(n), rng.Range(1, 2)
		data[r].Counts[e] = c
		data[r].Counts[e+1] = c
		e += 2
	}
	for f := 0; f < others; f++ {
		for k := rng.Range(1, 4); k > 0; k-- {
			data[rng.Intn(n)].Counts[e] = rng.Range(1, 3)
		}
		e++
	}
	for f := 0; f < common; f++ {
		for i := range data {
			if rng.Bool(0.5) {
				data[i].Counts[e] = rng.Range(1, 4)
			}
		}
		e++
	}
	for i := range data {
		y := 1.0 + 0.05*float64(data[i].Counts[e-1]) - 0.03*float64(data[i].Counts[e-2])
		data[i].Y = y + rng.Norm(0, 0.05)
	}
	return data
}

func BenchmarkRTreeBuild(b *testing.B) {
	data := benchDataset(1000, 400, 40)
	opt := Options{MaxLeaves: 40, MinLeaf: 2}

	b.Run("csr", func(b *testing.B) {
		m := IndexDataset(data) // once per tree in production; amortized here
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Build(opt)
		}
	})
	b.Run("csr-with-index", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			IndexDataset(data).Build(opt)
		}
	})
	b.Run("csr-wide", func(b *testing.B) {
		m := IndexDataset(wideDataset())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Build(DefaultOptions())
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			referenceBuild(data, opt)
		}
	})
}

func BenchmarkRTreeCrossValidate(b *testing.B) {
	data := benchDataset(600, 300, 30)
	opt := Options{MaxLeaves: 30, MinLeaf: 2}

	b.Run("csr", func(b *testing.B) {
		m := IndexDataset(data)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.CrossValidate(opt, 10, 7); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("csr-wide", func(b *testing.B) {
		m := IndexDataset(wideDataset())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.CrossValidate(DefaultOptions(), 10, 7); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := referenceCrossValidate(data, opt, 10, 7); err != nil {
				b.Fatal(err)
			}
		}
	})
}
