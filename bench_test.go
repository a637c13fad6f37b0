// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark runs the same pipeline the experiments use
// and reports the headline quantity of its figure/table as a custom metric
// (relative error, CPI variance, EXE share, ...), so `go test -bench=.`
// doubles as the reproduction harness. EXPERIMENTS.md records
// paper-vs-measured for each one.
//
// The figure benchmarks run at a reduced interval count (the shapes are
// stable well below the experiments' default); BenchFullScale=1 in the
// environment switches to full scale.
package fuzzyphase

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/experiment"
	"repro/internal/rtree"
)

// benchOpt returns the benchmark-scale options.
func benchOpt() Options {
	if os.Getenv("BenchFullScale") != "" {
		return Options{Seed: 1}
	}
	return Options{Seed: 1, Intervals: 140, Warmup: 10}
}

func report(b *testing.B, name string, v float64) {
	b.ReportMetric(v, name)
}

// cold drops the memoized Analyze results so every iteration measures the
// full simulation pipeline rather than a cache lookup (warm-cache behaviour
// is measured explicitly by BenchmarkAnalyzeCached).
func cold() { experiment.InvalidateAnalysisCache() }

func BenchmarkTable1ExampleTree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t1 := experiment.Table1()
		if len(t1.Splits) != 3 || t1.Splits[0].N != 20 {
			b.Fatal("example tree diverged from Figure 1")
		}
	}
}

// coldFigure regenerates figure id from a cold Analyze cache.
func coldFigure(b *testing.B, id int) *experiment.FigureData {
	cold()
	fig, err := experiment.Figure(context.Background(), id, benchOpt())
	if err != nil {
		b.Fatal(err)
	}
	return fig
}

func BenchmarkFigure2RelativeError(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curves := coldFigure(b, 2).Curves
		report(b, "odbc-RE", curves[0].REOpt)
		report(b, "sjas-RE", curves[1].REOpt)
	}
}

func BenchmarkFigure3Spread(b *testing.B) {
	for i := 0; i < b.N; i++ {
		spreads := coldFigure(b, 3).Spreads
		report(b, "odbc-eips", float64(spreads[0].UniqueEIPs))
		report(b, "sjas-eips", float64(spreads[1].UniqueEIPs))
	}
}

func BenchmarkFigure4CPIBreakdownODBC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report(b, "exe-share", coldFigure(b, 4).Breakdowns[0].EXEShare)
	}
}

func BenchmarkFigure5CPIBreakdownSjAS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report(b, "exe-share", coldFigure(b, 5).Breakdowns[0].EXEShare)
	}
}

func BenchmarkFigure6ThreadSeparationODBC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tc := coldFigure(b, 6).Threads[0]
		report(b, "nothread-RE", tc.NoThread.REOpt)
		report(b, "thread-RE", tc.Thread.REOpt)
	}
}

func BenchmarkFigure7ThreadSeparationSjAS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tc := coldFigure(b, 7).Threads[0]
		report(b, "nothread-RE", tc.NoThread.REOpt)
		report(b, "thread-RE", tc.Thread.REOpt)
	}
}

func BenchmarkFigure8Q13RelativeError(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := coldFigure(b, 8).Curves[0]
		report(b, "RE-kopt", c.REOpt)
		report(b, "k-opt", float64(c.KOpt))
	}
}

func BenchmarkFigure9Q13Spread(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report(b, "unique-eips", float64(coldFigure(b, 9).Spreads[0].UniqueEIPs))
	}
}

func BenchmarkFigure10Q18RelativeError(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report(b, "RE-kopt", coldFigure(b, 10).Curves[0].REOpt)
	}
}

func BenchmarkFigure11Q18Spread(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report(b, "cpi-var", coldFigure(b, 11).Spreads[0].CPIVariance)
	}
}

func BenchmarkFigure12Q18Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report(b, "exe-share", coldFigure(b, 12).Breakdowns[0].EXEShare)
	}
}

func BenchmarkFigure13QuadrantSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells := experiment.Figure13()
		if len(cells) != 4 {
			b.Fatal("quadrant space broken")
		}
	}
}

// BenchmarkTable2Quadrants regenerates the full 50-workload
// classification. One iteration takes on the order of a minute.
func BenchmarkTable2Quadrants(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cold()
		rows, err := experiment.Table2(context.Background(), benchOpt(), nil)
		if err != nil {
			b.Fatal(err)
		}
		match := 0
		for _, r := range rows {
			if r.Target != "" && r.Quadrant.String() == r.Target {
				match++
			}
		}
		report(b, "paper-matches", float64(match))
		report(b, "workloads", float64(len(rows)))
	}
}

func BenchmarkSection46TreeVsKMeans(b *testing.B) {
	names := []string{"odb-h.q13", "odb-h.q18", "spec.mcf", "spec.gzip"}
	for i := 0; i < b.N; i++ {
		cold()
		rows, err := experiment.Section46(context.Background(), names, benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		var improvement float64
		n := 0
		for _, r := range rows {
			if r.Improvement > 0 {
				improvement += r.Improvement
				n++
			}
		}
		if n > 0 {
			report(b, "mean-improvement", improvement/float64(n))
		}
	}
}

func BenchmarkSection7SamplingTechniques(b *testing.B) {
	names := []string{"odb-c", "odb-h.q13", "odb-h.q18", "spec.mcf"}
	for i := 0; i < b.N; i++ {
		cold()
		rows, err := experiment.Section7Sampling(context.Background(), names, 8, benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != len(names) {
			b.Fatal("missing rows")
		}
	}
}

func BenchmarkSection71IntervalSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cold()
		rows, err := experiment.Section71Intervals(context.Background(), []string{"odb-h.q13", "spec.mcf"}, benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		// Headline ratio: variance at 10M-equivalent vs 100M-equivalent.
		report(b, "var-ratio-10M", rows[2].CPIVar/rows[0].CPIVar)
	}
}

func BenchmarkSection71MachineSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cold()
		rows, err := experiment.Section71Machines(context.Background(), []string{"odb-h.q13", "spec.mcf"}, benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 6 {
			b.Fatal("machine sweep incomplete")
		}
	}
}

// --- Ablations (DESIGN.md §6) ---

// BenchmarkAblationMaxLeaves measures how the chamber cap affects Q13's
// relative error (the paper caps trees at 50 chambers, §4.3).
func BenchmarkAblationMaxLeaves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cold()
		for _, leaves := range []int{5, 15, 50} {
			opt := benchOpt()
			opt.MaxLeaves = leaves
			res, err := Analyze("odb-h.q13", opt)
			if err != nil {
				b.Fatal(err)
			}
			switch leaves {
			case 5:
				report(b, "RE-k5", res.CV.REOpt)
			case 15:
				report(b, "RE-k15", res.CV.REOpt)
			case 50:
				report(b, "RE-k50", res.CV.REOpt)
			}
		}
	}
}

// BenchmarkAblationSamplingPeriod measures SjAS at the default 1-per-1M
// equivalent period vs its fine 1-per-100K period (the paper samples SjAS
// 10x finer to catch JIT churn, §3.1).
func BenchmarkAblationSamplingPeriod(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cold()
		fine, err := Analyze("sjas", benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		coarse := benchOpt()
		coarse.PeriodOverride = 1000
		c, err := Analyze("sjas", coarse)
		if err != nil {
			b.Fatal(err)
		}
		report(b, "fine-eips", float64(fine.UniqueEIPs))
		report(b, "coarse-eips", float64(c.UniqueEIPs))
	}
}

// BenchmarkAblationPageBucketedEIPs coarsens EIPs to 4KB pages before the
// tree sees them: a cheaper feature space that sacrifices little on
// phase-structured workloads.
func BenchmarkAblationPageBucketedEIPs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cold()
		res, err := Analyze("odb-h.q13", benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		report(b, "raw-RE", res.CV.REOpt)
		report(b, "raw-feats", float64(res.UniqueEIPs))

		bucketed, feats := pageBucketRE(b, res)
		report(b, "page-RE", bucketed)
		report(b, "page-feats", float64(feats))
	}
}

func pageBucketRE(b *testing.B, res *Result) (float64, int) {
	b.Helper()
	data := experiment.Dataset(res.Set)
	uniq := map[uint64]struct{}{}
	for i := range data {
		coarse := make(map[uint64]int, len(data[i].Counts))
		for eip, c := range data[i].Counts {
			coarse[eip>>12] += c
		}
		data[i].Counts = coarse
		for f := range coarse {
			uniq[f] = struct{}{}
		}
	}
	cv, err := rtree.CrossValidate(data, rtree.Options{MaxLeaves: 50, MinLeaf: 2}, 10, 1)
	if err != nil {
		b.Fatal(err)
	}
	return cv.REOpt, len(uniq)
}

// BenchmarkAblationJoinAlgorithm contrasts Q3 under its two physical
// plans: the hash-join plan (Table 2's Q-IV entry) against the sort-merge
// variant, whose cache-warmup ramps erode predictability. Predictability
// is a property of the executed plan, not the source query — the paper's
// thesis in one ablation.
func BenchmarkAblationJoinAlgorithm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cold()
		hash, err := Analyze("odb-h.q3", benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		merge, err := Analyze("odb-h.q3.mergejoin", benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		report(b, "hash-RE", hash.CV.REOpt)
		report(b, "merge-RE", merge.CV.REOpt)
	}
}

// BenchmarkSection33BBVComparison regenerates the paper's *deferred*
// experiment: sampled EIP vectors vs full basic-block vectors (§3.3).
func BenchmarkSection33BBVComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.CompareBBV(context.Background(), []string{"odb-h.q13"}, benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		report(b, "eipv-RE", rows[0].EIPV.REOpt)
		report(b, "bbv-RE", rows[0].BBV.REOpt)
	}
}

// BenchmarkEndToEndAnalyze is the overall pipeline cost benchmark.
func BenchmarkEndToEndAnalyze(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cold()
		if _, err := Analyze("spec.gzip", benchOpt()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Parallel engine (ISSUE 1) ---

// BenchmarkTable2Parallel regenerates the 50-workload classification at
// several worker counts. Wall-clock scales with available cores; the
// rendered classification is identical at every setting.
func BenchmarkTable2Parallel(b *testing.B) {
	for _, workers := range []int{1, 4, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opt := benchOpt()
			opt.Parallelism = workers
			for i := 0; i < b.N; i++ {
				cold()
				rows, err := experiment.Table2(context.Background(), opt, nil)
				if err != nil {
					b.Fatal(err)
				}
				report(b, "workloads", float64(len(rows)))
			}
		})
	}
}

// BenchmarkAnalyzeCached measures the memoization win: cold runs the full
// pipeline every iteration, warm serves the result from the cache.
func BenchmarkAnalyzeCached(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cold()
			if _, err := Analyze("odb-h.q13", benchOpt()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		cold()
		if _, err := Analyze("odb-h.q13", benchOpt()); err != nil {
			b.Fatal(err) // prime
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Analyze("odb-h.q13", benchOpt()); err != nil {
				b.Fatal(err)
			}
		}
		stats := experiment.AnalysisCacheStats()
		report(b, "cache-hits", float64(stats.Hits))
	})
}
