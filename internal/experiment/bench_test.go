package experiment

import (
	"context"
	"testing"

	"repro/internal/profiler"
	"repro/internal/rtree"
)

// benchBlobs memoizes each workload's encoded collection across the
// benchmark's runs (benchmarks run one at a time).
var benchBlobs = map[string][]byte{}

// BenchmarkEIPVIndex times the layer between a stored profile and the
// regression-tree kernel: ranking a freshly decoded profile's EIPs
// and cutting its steady-state EIPVs (buildEIPVs), then indexing
// them (rtree.IndexDataset, the column build included). The profiles are the
// full-scale seed-1 collections of one J2EE, one OLTP and one DSS
// workload, encoded once as stored entries; decoding an entry is outside
// the timer.
func BenchmarkEIPVIndex(b *testing.B) {
	for _, name := range []string{"sjas", "odb-c", "odb-h.q2"} {
		b.Run(name, func(b *testing.B) {
			opt := Options{Seed: 1}.withDefaults()
			blob := benchBlobs[name]
			if blob == nil {
				col, err := profiler.CollectByName(name, profiler.CollectOptions{
					Machine:   opt.Machine,
					Seed:      opt.Seed,
					Intervals: opt.Intervals,
				})
				if err != nil {
					b.Fatal(err)
				}
				blob = profiler.EncodeResult(col)
				benchBlobs[name] = blob
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				col, err := profiler.DecodeResult(blob)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				rtree.IndexDataset(Dataset(buildEIPVs(col, opt)))
			}
		})
	}
}

// BenchmarkBBVIndex times the §3.3 comparison's step from stored
// basic-block vectors to the regression-tree kernel: indexing a freshly
// decoded entry's steady-state BBV rows (indexBBV, the column build
// included). The profiles are the full-scale seed-1 BBV collections of
// one DSS, one J2EE and one OLTP workload, encoded once as stored
// entries; decoding an entry is outside the timer.
func BenchmarkBBVIndex(b *testing.B) {
	for _, name := range []string{"odb-h.q13", "sjas", "odb-c"} {
		b.Run(name, func(b *testing.B) {
			opt := Options{Seed: 1}.withDefaults()
			blob := benchBlobs[name+"+bbv"]
			if blob == nil {
				col, err := profiler.CollectByName(name, profiler.CollectOptions{
					Machine:          opt.Machine,
					Seed:             opt.Seed,
					Intervals:        opt.Intervals,
					BuildBBV:         true,
					BBVIntervalInsts: opt.IntervalInsts,
				})
				if err != nil {
					b.Fatal(err)
				}
				blob = profiler.EncodeResult(col)
				benchBlobs[name+"+bbv"] = blob
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				col, err := profiler.DecodeResult(blob)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := indexBBV(col.BBV, opt.Warmup); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSection46Row times one §4.6 row at two workers: the k-means
// sweep, its Gram build included, and the full-data regression tree. Each
// iteration first re-analyzes the workload outside the timer, from the
// profile store's disk tier, so the row runs on a fresh Result as a
// warm regeneration's does.
func BenchmarkSection46Row(b *testing.B) {
	if err := SetProfileDir(b.TempDir()); err != nil {
		b.Fatal(err)
	}
	defer func() {
		_ = SetProfileDir("") // detaching cannot fail
		InvalidateAnalysisCache()
	}()
	for _, name := range []string{"sjas", "odb-h.q2"} {
		b.Run(name, func(b *testing.B) {
			opt := Options{Seed: 1, Parallelism: 2}
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				InvalidateAnalysisCache()
				if _, err := AnalyzeCtx(context.Background(), name, opt); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := Section46(context.Background(), []string{name}, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCrossValidateWorkloads times the regression-tree layer alone on
// real matrices: the §4.4 10-fold cross-validation (50 leaves, MinLeaf 2)
// at Parallelism 1 over the full-scale seed-1 steady-state EIPVs of two
// DSS queries, the OLTP workload and the J2EE workload. Each matrix is
// collected and indexed once, outside the timer.
func BenchmarkCrossValidateWorkloads(b *testing.B) {
	for _, name := range []string{"odb-h.q13", "odb-h.q2", "odb-c", "sjas"} {
		b.Run(name, func(b *testing.B) {
			opt := Options{Seed: 1}.withDefaults()
			col, err := profiler.CollectByName(name, profiler.CollectOptions{
				Machine:   opt.Machine,
				Seed:      opt.Seed,
				Intervals: opt.Intervals,
			})
			if err != nil {
				b.Fatal(err)
			}
			mtx := rtree.IndexDataset(Dataset(buildEIPVs(col, opt)))
			treeOpt := rtree.Options{MaxLeaves: opt.MaxLeaves, MinLeaf: 2, Parallelism: 1}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mtx.CrossValidateCtx(context.Background(), treeOpt, opt.Folds, opt.Seed); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
