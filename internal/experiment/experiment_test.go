package experiment

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/eipv"
	"repro/internal/profiler"
	"repro/internal/quadrant"
	"repro/internal/rtree"
)

// fast returns reduced-scale options for unit tests (full-scale runs live
// in the benchmarks and the TestPaperHeadlines integration test).
func fast() Options { return Options{Intervals: 60, Warmup: 6, Seed: 1} }

func TestAnalyzeBasics(t *testing.T) {
	res, err := Analyze("spec.gzip", fast())
	if err != nil {
		t.Fatal(err)
	}
	if res.Name != "spec.gzip" || res.Machine != "itanium2" {
		t.Fatalf("identity: %s on %s", res.Name, res.Machine)
	}
	if res.Intervals < 40 {
		t.Fatalf("only %d steady-state intervals", res.Intervals)
	}
	if res.MeanCPI <= 0 {
		t.Fatal("non-positive CPI")
	}
	if len(res.CV.RE) != DefaultMaxLeaves {
		t.Fatalf("RE curve length %d", len(res.CV.RE))
	}
	sum := res.Breakdown[0] + res.Breakdown[1] + res.Breakdown[2] + res.Breakdown[3]
	if sum < res.MeanCPI*0.9 || sum > res.MeanCPI*1.1 {
		t.Fatalf("breakdown %v does not sum to CPI %v", res.Breakdown, res.MeanCPI)
	}
}

func TestAnalyzeUnknownWorkload(t *testing.T) {
	if _, err := Analyze("nope", fast()); err == nil {
		t.Fatal("unknown workload did not error")
	}
}

func TestAnalyzeDeterministic(t *testing.T) {
	a, err := Analyze("odb-h.q7", fast())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Analyze("odb-h.q7", fast())
	if err != nil {
		t.Fatal(err)
	}
	if a.CPIVariance != b.CPIVariance || a.CV.REOpt != b.CV.REOpt {
		t.Fatalf("nondeterministic analysis: %v/%v vs %v/%v",
			a.CPIVariance, a.CV.REOpt, b.CPIVariance, b.CV.REOpt)
	}
}

func TestThreadSeparatedMode(t *testing.T) {
	opt := fast()
	opt.ThreadSeparated = true
	res, err := Analyze("spec.crafty", opt)
	if err != nil {
		t.Fatal(err)
	}
	saw := false
	for _, v := range res.Set.Vectors {
		if v.Thread >= 0 {
			saw = true
		}
	}
	if !saw {
		t.Fatal("thread-separated vectors carry no thread ids")
	}
}

// TestThreadSeparatedAfterMatchesCopy: thread-separated EIPVs cut from
// After's shared suffix, and the matrix they index to, equal those cut
// from a copy of every sample at or beyond the warmup bound.
func TestThreadSeparatedAfterMatchesCopy(t *testing.T) {
	opt := fast().withDefaults()
	bound := uint64(opt.Warmup) * opt.IntervalInsts
	for _, name := range []string{"odb-c", "sjas"} {
		col, err := collectCached(context.Background(), name, opt, false)
		if err != nil {
			t.Fatal(err)
		}
		p := col.Profile
		copied := &profiler.Profile{Workload: p.Workload, Machine: p.Machine, Period: p.Period}
		for _, s := range p.Samples {
			if s.Counters.Insts >= bound {
				copied.Samples = append(copied.Samples, s)
			}
		}
		got := eipv.BuildPerThread(p.After(bound), opt.IntervalInsts)
		want := eipv.BuildPerThread(copied, opt.IntervalInsts)
		if len(want.Vectors) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: EIPVs over After differ from those over a copied suffix (%d vs %d vectors)",
				name, len(got.Vectors), len(want.Vectors))
		}
		if !reflect.DeepEqual(rtree.IndexDataset(Dataset(got)), rtree.IndexDataset(Dataset(want))) {
			t.Fatalf("%s: indexed matrices differ", name)
		}
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	t1 := Table1()
	if len(t1.Splits) != 3 {
		t.Fatalf("%d splits", len(t1.Splits))
	}
	if t1.Splits[0].EIP != 0 || t1.Splits[0].N != 20 {
		t.Fatalf("root split (EIP%d,%d)", t1.Splits[0].EIP, t1.Splits[0].N)
	}
	var buf bytes.Buffer
	RenderTable1(&buf, t1)
	out := buf.String()
	for _, want := range []string{"EIP0 <= 20", "EIP2 <= 60", "EIP1 <= 0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestFigure13Definition(t *testing.T) {
	cells := Figure13()
	if len(cells) != 4 {
		t.Fatalf("%d cells", len(cells))
	}
	var buf bytes.Buffer
	RenderFigure13(&buf, cells)
	for _, q := range []string{"Q-I", "Q-II", "Q-III", "Q-IV"} {
		if !strings.Contains(buf.String(), q) {
			t.Fatalf("missing %s", q)
		}
	}
}

// mustFigure regenerates figure id, failing the test on error.
func mustFigure(t *testing.T, id int, opt Options) *FigureData {
	t.Helper()
	fig, err := Figure(context.Background(), id, opt)
	if err != nil {
		t.Fatal(err)
	}
	return fig
}

func TestFigure8And10Contrast(t *testing.T) {
	// The central DSS contrast at reduced scale: Q13's curve drops low,
	// Q18's stays high.
	opt := Options{Intervals: 120, Warmup: 8, Seed: 1}
	f8 := mustFigure(t, 8, opt).Curves[0]
	f10 := mustFigure(t, 10, opt).Curves[0]
	if f8.REOpt > 0.3 {
		t.Fatalf("Q13 RE %.3f, want low", f8.REOpt)
	}
	if f10.REOpt < 0.4 {
		t.Fatalf("Q18 RE %.3f, want high", f10.REOpt)
	}
	if f10.REOpt < 2*f8.REOpt {
		t.Fatalf("Q13/Q18 contrast too weak: %.3f vs %.3f", f8.REOpt, f10.REOpt)
	}
}

func TestSpreadContrast(t *testing.T) {
	// Figure 3 vs Figure 9: server EIP populations dwarf DSS query ones.
	opt := Options{Intervals: 40, Warmup: 4, Seed: 1}
	f3 := mustFigure(t, 3, opt).Spreads
	f9 := mustFigure(t, 9, opt).Spreads[0]
	for _, s := range f3 {
		if s.UniqueEIPs < 10*f9.UniqueEIPs {
			t.Fatalf("%s unique EIPs %d not >> q13's %d", s.Name, s.UniqueEIPs, f9.UniqueEIPs)
		}
	}
}

func TestBreakdownShares(t *testing.T) {
	opt := Options{Intervals: 50, Warmup: 5, Seed: 1}
	f4 := mustFigure(t, 4, opt).Breakdowns[0]
	if f4.EXEShare < 0.4 {
		t.Fatalf("ODB-C EXE share %.2f, want dominant (paper >50%%)", f4.EXEShare)
	}
	f5 := mustFigure(t, 5, opt).Breakdowns[0]
	if f5.EXEShare < 0.2 || f5.EXEShare > 0.65 {
		t.Fatalf("SjAS EXE share %.2f, want 30-40%% band", f5.EXEShare)
	}
	var buf bytes.Buffer
	RenderBreakdown(&buf, f4)
	if !strings.Contains(buf.String(), "odb-c") {
		t.Fatal("render missing name")
	}
}

func TestRenderers(t *testing.T) {
	curves := []Curve{{Name: "a", RE: []float64{1, 0.9}, KOpt: 2, REOpt: 0.9}}
	var buf bytes.Buffer
	RenderCurves(&buf, "t", curves)
	RenderCurvesCSV(&buf, curves)
	RenderSpread(&buf, SpreadData{Name: "x"})
	RenderSpreadCSV(&buf, SpreadData{Name: "x"})
	RenderSweep(&buf, "sweep", []SweepRow{{Label: "l", Name: "n"}})
	RenderSampling(&buf, nil)
	RenderTreeVsKMeans(&buf, []TreeVsKMeans{{Name: "n", TreeRE: 0.1, KMeans: 0.5, Improvement: 0.8}})
	if buf.Len() == 0 {
		t.Fatal("renderers produced nothing")
	}
}

func TestTable2WorkloadsList(t *testing.T) {
	rows := Table2Workloads()
	if len(rows) != 50 {
		t.Fatalf("%d workloads, want 50 (2 server + 22 odb-h + 26 spec)", len(rows))
	}
	targets := 0
	for _, r := range rows {
		if r.Target != "" {
			targets++
		}
	}
	if targets != 50 {
		t.Fatalf("%d rows with paper targets", targets)
	}
}

// TestPaperHeadlines is the integration test: at full scale, the headline
// claims of the paper must hold. It is the expensive end-to-end check
// (skipped with -short).
func TestPaperHeadlines(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale integration test")
	}
	opt := Options{Seed: 1}

	// §5/Figure 2: ODB-C unpredictable (RE ~>= 1), low variance -> Q-I.
	odbc, err := Analyze("odb-c", opt)
	if err != nil {
		t.Fatal(err)
	}
	if odbc.CV.REOpt < 0.9 {
		t.Errorf("ODB-C REOpt %.3f, want ~1", odbc.CV.REOpt)
	}
	if odbc.Quadrant != quadrant.QI {
		t.Errorf("ODB-C in %s, want Q-I", odbc.Quadrant)
	}
	if odbc.UniqueEIPs < 5000 {
		t.Errorf("ODB-C unique EIPs %d, want huge", odbc.UniqueEIPs)
	}
	// Rising RE with k (the paper's >1 overfit behaviour).
	if odbc.CV.RE[len(odbc.CV.RE)-1] < 1.0 {
		t.Errorf("ODB-C RE at k=50 is %.3f, want > 1", odbc.CV.RE[len(odbc.CV.RE)-1])
	}

	// SjAS: weakly explained, high variance -> Q-III.
	sjas, err := Analyze("sjas", opt)
	if err != nil {
		t.Fatal(err)
	}
	if sjas.Quadrant != quadrant.QIII {
		t.Errorf("SjAS in %s, want Q-III", sjas.Quadrant)
	}
	if sjas.CV.REOpt < 0.7 || sjas.CV.REOpt > 1.1 {
		t.Errorf("SjAS REOpt %.3f, want weak (~0.96 paper)", sjas.CV.REOpt)
	}

	// §6: Q13 strong (>=85%% explained, small k), Q18 weak.
	q13, err := Analyze("odb-h.q13", opt)
	if err != nil {
		t.Fatal(err)
	}
	if q13.CV.REOpt > 0.15 {
		t.Errorf("Q13 REOpt %.3f, want <= 0.15", q13.CV.REOpt)
	}
	if q13.Quadrant != quadrant.QIV {
		t.Errorf("Q13 in %s, want Q-IV", q13.Quadrant)
	}
	q18, err := Analyze("odb-h.q18", opt)
	if err != nil {
		t.Fatal(err)
	}
	if q18.CV.REOpt < 0.4 {
		t.Errorf("Q18 REOpt %.3f, want high", q18.CV.REOpt)
	}
	if q18.Quadrant != quadrant.QIII {
		t.Errorf("Q18 in %s, want Q-III", q18.Quadrant)
	}

	// §5.2: thread separation helps only minimally (Figures 6/7).
	f6 := mustFigure(t, 6, opt).Threads[0]
	if f6.Thread.REOpt > f6.NoThread.REOpt+0.05 {
		t.Errorf("thread separation hurt ODB-C: %.3f vs %.3f", f6.Thread.REOpt, f6.NoThread.REOpt)
	}
	if f6.Thread.REOpt < 0.6 {
		t.Errorf("thread separation explained ODB-C too well: %.3f", f6.Thread.REOpt)
	}
}

// TestTable2MatchesPaper verifies the repository's headline claim: every
// workload in the suite classifies into the quadrant the paper assigns it
// (or, where the paper's table print is garbled, into the reconstructed
// target that matches the paper's stated census). Runs at a reduced
// interval count; the benchmark regenerates the full-scale table.
func TestTable2MatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("classifies all 50 workloads (~30s)")
	}
	rows, err := Table2(context.Background(), Options{Seed: 1, Intervals: 140, Warmup: 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mismatches := 0
	for _, r := range rows {
		if r.Target != "" && r.Quadrant.String() != r.Target {
			t.Logf("MISMATCH %-14s var=%.4f RE=%.3f -> %s (paper %s)",
				r.Name, r.CPIVar, r.REOpt, r.Quadrant, r.Target)
			mismatches++
		}
	}
	// At reduced scale a couple of threshold-adjacent workloads may flip;
	// the full-scale run (results/table2.txt, BenchmarkTable2Quadrants)
	// matches 50/50.
	if mismatches > 2 {
		t.Fatalf("%d of %d workloads misclassified", mismatches, len(rows))
	}
}
