package experiment

import (
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/quadrant"
)

// RenderCurves writes RE-vs-k curves as an aligned text table (one row per
// k, one column per curve).
func RenderCurves(w io.Writer, title string, curves []Curve) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%4s", "k")
	for _, c := range curves {
		fmt.Fprintf(w, " %16s", c.Name)
	}
	fmt.Fprintln(w)
	if len(curves) == 0 {
		return
	}
	for k := 1; k <= len(curves[0].RE); k++ {
		fmt.Fprintf(w, "%4d", k)
		for _, c := range curves {
			fmt.Fprintf(w, " %16.4f", c.RE[k-1])
		}
		fmt.Fprintln(w)
	}
	for _, c := range curves {
		fmt.Fprintf(w, "# %s: RE_kopt=%.4f at k=%d\n", c.Name, c.REOpt, c.KOpt)
	}
}

// RenderCurvesCSV writes the curves as CSV.
func RenderCurvesCSV(w io.Writer, curves []Curve) {
	fmt.Fprint(w, "k")
	for _, c := range curves {
		fmt.Fprintf(w, ",%s", c.Name)
	}
	fmt.Fprintln(w)
	if len(curves) == 0 {
		return
	}
	for k := 1; k <= len(curves[0].RE); k++ {
		fmt.Fprintf(w, "%d", k)
		for _, c := range curves {
			fmt.Fprintf(w, ",%.6f", c.RE[k-1])
		}
		fmt.Fprintln(w)
	}
}

// RenderSpread summarizes a spread series (full point dumps go to CSV).
func RenderSpread(w io.Writer, s SpreadData) {
	fmt.Fprintf(w, "%s: %d samples over %.1f modeled seconds, %d unique EIPs, CPI variance %.4f\n",
		s.Name, len(s.Points), s.Seconds, s.UniqueEIPs, s.CPIVariance)
}

// RenderSpreadCSV writes the spread points as CSV (seconds, eip rank,
// instantaneous CPI) — the raw material of the paper's Figures 3/9/11.
func RenderSpreadCSV(w io.Writer, s SpreadData) {
	fmt.Fprintln(w, "seconds,eip_rank,cpi")
	for _, p := range s.Points {
		fmt.Fprintf(w, "%.6f,%d,%.4f\n", p.Seconds, p.EIPRank, p.CPI)
	}
}

// RenderBreakdown writes a per-interval CPI decomposition table.
func RenderBreakdown(w io.Writer, b BreakdownSeries) {
	fmt.Fprintf(w, "%s CPI breakdown (EXE share of CPI: %.0f%%)\n", b.Name, b.EXEShare*100)
	fmt.Fprintf(w, "%6s %8s %8s %8s %8s %8s\n", "ivl", "work", "fe", "exe", "other", "cpi")
	for i := range b.Work {
		cpi := b.Work[i] + b.FE[i] + b.EXE[i] + b.Other[i]
		fmt.Fprintf(w, "%6d %8.3f %8.3f %8.3f %8.3f %8.3f\n", i, b.Work[i], b.FE[i], b.EXE[i], b.Other[i], cpi)
	}
}

// RenderThreadComparison writes a Figures 6/7 table.
func RenderThreadComparison(w io.Writer, tc ThreadComparison) {
	fmt.Fprintf(w, "%s relative error with & without thread separation\n", tc.Name)
	fmt.Fprintf(w, "%4s %12s %12s\n", "k", "nothread", "thread")
	for k := 1; k <= len(tc.NoThread.RE); k++ {
		fmt.Fprintf(w, "%4d %12.4f %12.4f\n", k, tc.NoThread.RE[k-1], tc.Thread.RE[k-1])
	}
	fmt.Fprintf(w, "# nothread RE_kopt=%.4f (k=%d); thread RE_kopt=%.4f (k=%d)\n",
		tc.NoThread.REOpt, tc.NoThread.KOpt, tc.Thread.REOpt, tc.Thread.KOpt)
}

// renderFigure writes a figure built from spec: as text, or with csv as
// the raw CSV of its curves or spread points.
func renderFigure(w io.Writer, spec figureSpec, fig *FigureData, csv bool) {
	switch spec.kind {
	case curvesFigure:
		if csv {
			RenderCurvesCSV(w, fig.Curves)
		} else {
			RenderCurves(w, spec.title, fig.Curves)
		}
	case spreadFigure:
		if !csv {
			fmt.Fprintln(w, spec.title)
		}
		for _, s := range fig.Spreads {
			if csv {
				RenderSpreadCSV(w, s)
			} else {
				RenderSpread(w, s)
			}
		}
	case breakdownFigure:
		for _, b := range fig.Breakdowns {
			RenderBreakdown(w, b)
		}
	case threadFigure:
		for _, tc := range fig.Threads {
			RenderThreadComparison(w, tc)
		}
	case quadrantFigure:
		RenderFigure13(w, fig.Cells)
	}
}

// RenderTable1 writes the worked example: the dataset, the splits, and the
// chamber means (paper Table 1 + Figure 1).
func RenderTable1(w io.Writer, t1 Table1Result) {
	fmt.Fprintln(w, "Table 1 example EIPVs (counts in millions) and Figure 1 tree")
	fmt.Fprintf(w, "%6s %6s %6s %6s %6s %10s\n", "eipv", "cpi", "eip0", "eip1", "eip2", "chamber")
	for i, r := range t1.Data {
		fmt.Fprintf(w, "%6d %6.1f %6d %6d %6d %10.2f\n", i, r.CPI,
			r.Counts[0], r.Counts[1], r.Counts[2], t1.ChamberCPI[i])
	}
	for _, sp := range t1.Splits {
		fmt.Fprintf(w, "split %d: EIP%d <= %d (gain %.3f)\n", sp.Order, sp.EIP, sp.N, sp.Gain)
	}
}

// RenderTable2 writes the full classification table grouped like the
// paper's Table 2, plus the census.
func RenderTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintf(w, "%-14s %-7s %10s %8s %4s %-6s %-6s\n",
		"benchmark", "group", "cpi-var", "RE_kopt", "k", "quad", "paper")
	for _, r := range rows {
		target := r.Target
		if target == "" {
			target = "-"
		}
		mark := ""
		if r.Target != "" && r.Quadrant.String() != r.Target {
			mark = "  *MISMATCH*"
		}
		fmt.Fprintf(w, "%-14s %-7s %10.4f %8.3f %4d %-6s %-6s%s\n",
			r.Name, r.Group, r.CPIVar, r.REOpt, r.KOpt, r.Quadrant, target, mark)
	}
	RenderQuadrantCensus(w, rows)
}

// RenderQuadrantCensus writes the per-group quadrant tallies — the census
// lines that close out Table 2.
func RenderQuadrantCensus(w io.Writer, rows []Table2Row) {
	census := QuadrantCensus(rows)
	for _, g := range []string{"server", "odb-h", "spec"} {
		if c, ok := census[g]; ok {
			fmt.Fprintf(w, "# %s: Q-I=%d Q-II=%d Q-III=%d Q-IV=%d\n",
				g, c[quadrant.QI], c[quadrant.QII], c[quadrant.QIII], c[quadrant.QIV])
		}
	}
}

// RenderFigure13 writes the quadrant-space definition.
func RenderFigure13(w io.Writer, cells []Figure13Cell) {
	fmt.Fprintf(w, "quadrant space (CPI variance threshold %.2f, RE threshold %.2f)\n",
		quadrant.VarianceThreshold, quadrant.REThreshold)
	for _, c := range cells {
		fmt.Fprintf(w, "%-6s var %-8s RE %-8s -> %-11s  %s\n",
			c.Quadrant, c.VarLabel, c.RELabel, c.Technique, c.Rationale)
	}
}

// RenderTreeVsKMeans writes the §4.6 comparison.
func RenderTreeVsKMeans(w io.Writer, rows []TreeVsKMeans) {
	fmt.Fprintf(w, "%-14s %10s %10s %10s %4s %12s\n",
		"benchmark", "tree-RE", "tree-CV", "kmeans-RE", "k", "improvement")
	var sum float64
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %10.3f %10.3f %10.3f %4d %11.0f%%\n",
			r.Name, r.TreeRE, r.TreeCV, r.KMeans, r.KMeansK, r.Improvement*100)
		sum += r.Improvement
	}
	if len(rows) > 0 {
		fmt.Fprintf(w, "# mean improvement: %.0f%% (paper: ~80%%)\n", 100*sum/float64(len(rows)))
	}
}

// RenderSampling writes the §7 sampling-technique evaluation.
func RenderSampling(w io.Writer, rows []SamplingRow) {
	fmt.Fprintf(w, "%-14s %-6s", "benchmark", "quad")
	if len(rows) > 0 {
		for _, e := range rows[0].Evals {
			fmt.Fprintf(w, " %12s", e.Technique)
		}
	}
	fmt.Fprintf(w, " %12s %10s\n", "recommended", "n@2%")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-6s", r.Name, r.Quadrant)
		for _, e := range r.Evals {
			if math.IsNaN(e.RelErr) {
				// Relative error is undefined when the true mean is zero
				// (sampling.Eval flags it as NaN); render it honestly.
				fmt.Fprintf(w, " %12s", "n/a")
			} else {
				fmt.Fprintf(w, " %11.2f%%", e.RelErr*100)
			}
		}
		fmt.Fprintf(w, " %12s %10d\n", r.Recommend, r.RequiredFor2Pct)
	}
}

// RenderSweep writes a §7.1 sweep table.
func RenderSweep(w io.Writer, title string, rows []SweepRow) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-14s %-10s %10s %8s %8s\n", "benchmark", "config", "cpi-var", "RE_kopt", "cpi")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-10s %10.4f %8.3f %8.3f\n", r.Name, r.Label, r.CPIVar, r.REOpt, r.MeanCPI)
	}
}

// Summary renders one workload's analysis as a short paragraph.
func Summary(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s on %s: %d steady-state EIPVs, mean CPI %.3f, CPI variance %.4f\n",
		res.Name, res.Machine, res.Intervals, res.MeanCPI, res.CPIVariance)
	fmt.Fprintf(&b, "  RE_kopt %.3f at k=%d (asymptote %.3f); explained variance %.0f%%\n",
		res.CV.REOpt, res.CV.KOpt, res.CV.REAsym, res.CV.ExplainedVariance()*100)
	fmt.Fprintf(&b, "  unique EIPs %d, OS time %.1f%%, %.0f context switches/s\n",
		res.UniqueEIPs, res.OSFraction*100, res.SwitchesPerSec)
	fmt.Fprintf(&b, "  CPI = work %.2f + fe %.2f + exe %.2f + other %.2f\n",
		res.Breakdown[0], res.Breakdown[1], res.Breakdown[2], res.Breakdown[3])
	fmt.Fprintf(&b, "  quadrant %s -> sample with %s\n", res.Quadrant, quadrant.Recommend(res.Quadrant))
	return b.String()
}
