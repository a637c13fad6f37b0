package experiment

import (
	"context"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cpu"
	"repro/internal/db"
	"repro/internal/eipv"
	"repro/internal/par"
	"repro/internal/quadrant"
	"repro/internal/rtree"
	"repro/internal/sampling"
	"repro/internal/specgen"
	"repro/internal/workload"
)

// Curve is one relative-error-vs-k series (the paper's Figures 2, 6-8, 10).
type Curve struct {
	Name string
	RE   []float64 // RE[k-1] for k = 1..len
	KOpt int
	// REOpt is the curve minimum (the paper's RE_kopt).
	REOpt float64
}

func curveOf(res *Result, name string) Curve {
	return Curve{Name: name, RE: res.CV.RE, KOpt: res.CV.KOpt, REOpt: res.CV.REOpt}
}

// analyzeMany fans Analyze out across names on the options' worker budget
// and returns the results in input order.
func analyzeMany(ctx context.Context, names []string, opt Options) ([]*Result, error) {
	return fanOut(ctx, opt, len(names), func(ctx context.Context, i int, inner Options) (*Result, error) {
		return AnalyzeCtx(ctx, names[i], inner)
	})
}

// SpreadData is one workload's EIP & CPI spread (Figures 3, 9, 11).
type SpreadData struct {
	Name        string
	Points      []eipv.SpreadPoint
	UniqueEIPs  int
	CPIVariance float64
	Seconds     float64
}

func spreadOf(res *Result) SpreadData {
	pts, unique := eipv.Spread(res.Profile)
	secs := 0.0
	if len(pts) > 0 {
		secs = pts[len(pts)-1].Seconds - pts[0].Seconds
	}
	return SpreadData{
		Name:        res.Name,
		Points:      pts,
		UniqueEIPs:  unique,
		CPIVariance: res.CPIVariance,
		Seconds:     secs,
	}
}

// BreakdownSeries is a per-interval CPI decomposition (Figures 4, 5, 12).
type BreakdownSeries struct {
	Name                 string
	Work, FE, EXE, Other []float64
	// EXEShare is EXE's mean fraction of CPI (the paper's headline:
	// >50% for ODB-C, 30-40% for SjAS).
	EXEShare float64
}

func breakdownOf(res *Result) BreakdownSeries {
	b := BreakdownSeries{Name: res.Name}
	var exeSum, cpiSum float64
	for _, v := range res.Set.Vectors {
		b.Work = append(b.Work, v.Work)
		b.FE = append(b.FE, v.FE)
		b.EXE = append(b.EXE, v.EXE)
		b.Other = append(b.Other, v.Other)
		exeSum += v.EXE
		cpiSum += v.CPI
	}
	if cpiSum > 0 {
		b.EXEShare = exeSum / cpiSum
	}
	return b
}

// ThreadComparison is a Figures 6/7 pair: RE with and without thread
// separation.
type ThreadComparison struct {
	Name     string
	NoThread Curve
	Thread   Curve
}

func threadComparison(ctx context.Context, name string, opt Options) (ThreadComparison, error) {
	noThread, err := AnalyzeCtx(ctx, name, opt)
	if err != nil {
		return ThreadComparison{}, err
	}
	sep := opt
	sep.ThreadSeparated = true
	thread, err := AnalyzeCtx(ctx, name, sep)
	if err != nil {
		return ThreadComparison{}, err
	}
	return ThreadComparison{
		Name:     name,
		NoThread: curveOf(noThread, name+".nothread"),
		Thread:   curveOf(thread, name+".thread"),
	}, nil
}

// figureKind is the shape of a figure's data.
type figureKind int

const (
	curvesFigure    figureKind = iota // RE-vs-k curves, one per workload
	spreadFigure                      // EIP & CPI spreads
	breakdownFigure                   // per-interval CPI breakdowns
	threadFigure                      // RE with and without thread separation
	quadrantFigure                    // the quadrant-space definition
)

// hasCSV reports whether the kind's raw data has a CSV form.
func (k figureKind) hasCSV() bool { return k == curvesFigure || k == spreadFigure }

// figureSpec declares one paper figure.
type figureSpec struct {
	id        int
	kind      figureKind
	workloads []string
	// title heads the text form of curve and spread figures; the other
	// kinds' renderers write their own heading.
	title string
}

// figures declares every figure Figure regenerates, in paper order: the
// one place that says which workloads, data shape and title make up
// figure N. The shapes the paper reports:
//
//   - 2: ODB-C's curve rises above one with k; SjAS stays flat just under one.
//   - 3: tens of thousands of uniformly exercised EIPs over a small-variance
//     CPI band.
//   - 4, 5: EXE/L3 stalls dominate ODB-C's CPI; EXE is 30-40% of SjAS's.
//   - 6, 7: thread separation barely lowers either server's RE.
//   - 8, 9: Q13's curve drops fast to a low asymptote at small k; its
//     EIPs are loopy and strongly correlated with CPI.
//   - 10, 11, 12: Q18's curve stays flat above one; the same EIPs run at
//     erratic CPI, with no single dominant, time-shifting bottleneck.
//   - 13: the quadrant space itself; no workload.
var figures = []figureSpec{
	{2, curvesFigure, []string{"odb-c", "sjas"}, "Figure 2: relative error trend for ODB-C & SjAS"},
	{3, spreadFigure, []string{"odb-c", "sjas"}, "Figure 3: EIP & CPI spread of ODB-C and SjAS"},
	{4, breakdownFigure, []string{"odb-c"}, ""},
	{5, breakdownFigure, []string{"sjas"}, ""},
	{6, threadFigure, []string{"odb-c"}, ""},
	{7, threadFigure, []string{"sjas"}, ""},
	{8, curvesFigure, []string{"odb-h.q13"}, "Figure 8: relative error trend for Q13"},
	{9, spreadFigure, []string{"odb-h.q13"}, "Figure 9: EIP & CPI spread for Q13"},
	{10, curvesFigure, []string{"odb-h.q18"}, "Figure 10: relative error trend for Q18"},
	{11, spreadFigure, []string{"odb-h.q18"}, "Figure 11: EIP & CPI spread for Q18"},
	{12, breakdownFigure, []string{"odb-h.q18"}, ""},
	{13, quadrantFigure, nil, ""},
}

// lookupFigure returns figure id's declaration, or the error the CLI and
// the library report for an unknown figure, or for a CSV request of a
// figure without a CSV form.
func lookupFigure(id int, csv bool) (figureSpec, error) {
	i := slices.IndexFunc(figures, func(f figureSpec) bool { return f.id == id })
	if i < 0 {
		return figureSpec{}, fmt.Errorf("no figure %d (the paper has figures 1-13; figure 1 is part of table 1)", id)
	}
	if !csv || figures[i].kind.hasCSV() {
		return figures[i], nil
	}
	var withCSV []string
	for _, f := range figures {
		if f.kind.hasCSV() {
			withCSV = append(withCSV, strconv.Itoa(f.id))
		}
	}
	return figureSpec{}, fmt.Errorf("no CSV form for figure %d (available: %s)", id, strings.Join(withCSV, ", "))
}

// CheckFigure returns the error Figure reports for an unknown figure id,
// or nil, without analyzing anything.
func CheckFigure(id int) error {
	_, err := lookupFigure(id, false)
	return err
}

// FigureData is one figure's data; only the field of the figure's kind is
// set: one entry per workload, or Figure 13's four quadrant cells.
type FigureData struct {
	Curves     []Curve
	Spreads    []SpreadData
	Breakdowns []BreakdownSeries
	Threads    []ThreadComparison
	Cells      []Figure13Cell
}

// Figure reproduces the numbered paper figure (2-13), analyzing its
// workloads on the options' worker budget.
func Figure(ctx context.Context, id int, opt Options) (*FigureData, error) {
	spec, err := lookupFigure(id, false)
	if err != nil {
		return nil, err
	}
	return buildFigure(ctx, spec, opt)
}

func buildFigure(ctx context.Context, spec figureSpec, opt Options) (*FigureData, error) {
	names := spec.workloads
	switch spec.kind {
	case quadrantFigure:
		return &FigureData{Cells: Figure13()}, nil
	case threadFigure:
		tcs, err := fanOut(ctx, opt, len(names), func(ctx context.Context, i int, inner Options) (ThreadComparison, error) {
			return threadComparison(ctx, names[i], inner)
		})
		if err != nil {
			return nil, err
		}
		return &FigureData{Threads: tcs}, nil
	}
	results, err := analyzeMany(ctx, names, opt)
	if err != nil {
		return nil, err
	}
	fig := &FigureData{}
	for i, res := range results {
		switch spec.kind {
		case curvesFigure:
			fig.Curves = append(fig.Curves, curveOf(res, names[i]))
		case spreadFigure:
			fig.Spreads = append(fig.Spreads, spreadOf(res))
		case breakdownFigure:
			fig.Breakdowns = append(fig.Breakdowns, breakdownOf(res))
		}
	}
	return fig, nil
}

// WriteFigure regenerates figure id on w: as text, or with csv as the raw
// CSV data of a curve or spread figure. An unknown figure, or a CSV
// request for a figure without a CSV form, fails before any analysis.
func WriteFigure(ctx context.Context, w io.Writer, id int, opt Options, csv bool) error {
	spec, err := lookupFigure(id, csv)
	if err != nil {
		return err
	}
	fig, err := buildFigure(ctx, spec, opt)
	if err != nil {
		return err
	}
	renderFigure(w, spec, fig, csv)
	return nil
}

// Figure13Cell describes one quadrant of the classification space.
type Figure13Cell struct {
	Quadrant  quadrant.Quadrant
	VarLabel  string
	RELabel   string
	Technique sampling.Technique
	Rationale string
}

// Figure13 reproduces the quadrant-space definition.
func Figure13() []Figure13Cell {
	mk := func(q quadrant.Quadrant, v, r string) Figure13Cell {
		return Figure13Cell{Quadrant: q, VarLabel: v, RELabel: r,
			Technique: quadrant.Recommend(q), Rationale: quadrant.Rationale(q)}
	}
	return []Figure13Cell{
		mk(quadrant.QI, "<= 0.01", "> 0.15"),
		mk(quadrant.QII, "<= 0.01", "<= 0.15"),
		mk(quadrant.QIII, "> 0.01", "> 0.15"),
		mk(quadrant.QIV, "> 0.01", "<= 0.15"),
	}
}

// Table1Result is the worked example's reproduction (Table 1 + Figure 1).
type Table1Result struct {
	Data   []rtree.ExampleEIPV
	Splits []rtree.Split
	// ChamberCPI maps each EIPV index to its chamber's mean CPI.
	ChamberCPI []float64
}

// Table1 builds the paper's example regression tree.
func Table1() Table1Result {
	tree := rtree.ExampleMatrix().Build(rtree.Options{MaxLeaves: 4, MinLeaf: 1})
	out := Table1Result{Data: rtree.ExampleTable1(), Splits: tree.Splits()}
	for i := range out.Data {
		out.ChamberCPI = append(out.ChamberCPI, tree.PredictRowK(i, tree.Leaves()))
	}
	return out
}

// Table2Row is one benchmark's classification (the paper's Table 2).
type Table2Row struct {
	Name     string
	Group    string // "server", "odb-h", "spec"
	CPIVar   float64
	REOpt    float64
	KOpt     int
	Quadrant quadrant.Quadrant
	// Target is the paper's placement (empty when the paper's table is
	// ambiguous for this entry).
	Target string
	// Elapsed is how long this workload's Analyze call took (near zero on
	// a cache hit). It is diagnostic only and never rendered in the table.
	Elapsed time.Duration
}

// Table2Workloads lists the full suite in presentation order.
func Table2Workloads() []Table2Row {
	rows := []Table2Row{
		{Name: "odb-c", Group: "server", Target: "Q-I"},
		{Name: "sjas", Group: "server", Target: "Q-III"},
	}
	for _, q := range db.Queries() {
		target := ""
		switch q.Behavior {
		case db.ScanJoinSort:
			target = "Q-IV"
		case db.IndexErratic:
			target = "Q-III"
		case db.UniformScan:
			target = "Q-I"
		case db.SubtlePhases:
			target = "Q-II"
		}
		rows = append(rows, Table2Row{Name: fmt.Sprintf("odb-h.q%d", q.ID), Group: "odb-h", Target: target})
	}
	names := specgen.Names()
	sort.Strings(names)
	for _, n := range names {
		rows = append(rows, Table2Row{Name: "spec." + n, Group: "spec", Target: specgen.TargetQuadrant[n]})
	}
	return rows
}

// Table2 classifies every workload in the suite, fanning the per-workload
// analyses across Options.Parallelism workers; ctx cancels the fan-out and
// the in-flight analyses. progress, if non-nil, is called after each
// workload (CLI feedback; a cold full-suite analysis takes minutes). Even
// under parallel execution, progress fires in table order, one call at a
// time — completion of row i is reported only after rows 0..i-1 have been
// reported.
func Table2(ctx context.Context, opt Options, progress func(name string, row Table2Row)) ([]Table2Row, error) {
	rows := Table2Workloads()
	var gate *progressGate
	if progress != nil {
		gate = newProgressGate(len(rows), func(i int) {
			progress(rows[i].Name, rows[i])
		})
	}
	return fanOut(ctx, opt, len(rows), func(ctx context.Context, i int, inner Options) (Table2Row, error) {
		row := &rows[i]
		start := time.Now()
		res, err := AnalyzeCtx(ctx, row.Name, inner)
		if err != nil {
			return Table2Row{}, fmt.Errorf("table2: %s: %w", row.Name, err)
		}
		row.CPIVar = res.CPIVariance
		row.REOpt = res.CV.REOpt
		row.KOpt = res.CV.KOpt
		row.Quadrant = res.Quadrant
		row.Elapsed = time.Since(start)
		gate.done(i)
		return *row, nil
	})
}

// QuadrantCensus tallies rows per quadrant and group.
func QuadrantCensus(rows []Table2Row) map[string]map[quadrant.Quadrant]int {
	out := map[string]map[quadrant.Quadrant]int{}
	for _, r := range rows {
		if out[r.Group] == nil {
			out[r.Group] = map[quadrant.Quadrant]int{}
		}
		out[r.Group][r.Quadrant]++
	}
	return out
}

// TreeVsKMeans is the §4.6 comparison for one workload, under the paper's
// protocol: "we choose k-values independently from both schemes, where the
// k value is less than 50 and the performance predictability is minimized
// for each algorithm respectively". Both algorithms partition the same
// EIPVs into at most 50 groups and are scored by the same in-sample
// relative error (within-group CPI MSE over total CPI variance). K-means
// never sees CPI when forming clusters — the paper's point — so wherever
// code and CPI decouple it falls behind.
type TreeVsKMeans struct {
	Name string
	// TreeRE is the tree's minimized in-sample RE (k <= 50).
	TreeRE float64
	// TreeCV is the honest cross-validated RE_kopt, for reference.
	TreeCV  float64
	KMeans  float64 // best in-sample K-means RE over k <= 50
	KMeansK int
	// Improvement is (KMeans - TreeRE) / KMeans when positive.
	Improvement float64
}

// Section46 compares regression trees against K-means clustering on the
// given workloads (the paper reports an average ~80% improvement in CPI
// predictability across its suite). Each workload's full-data tree and
// its k sweep's grid points are tasks of one pool on the workload's share
// of the Parallelism budget, the tree claimed first: it takes about as
// long as the largest k, so it overlaps the sweep instead of following
// it. The result is the same at any share.
func Section46(ctx context.Context, names []string, opt Options) ([]TreeVsKMeans, error) {
	return fanOut(ctx, opt, len(names), func(ctx context.Context, i int, inner Options) (TreeVsKMeans, error) {
		name := names[i]
		res, err := AnalyzeCtx(ctx, name, inner)
		if err != nil {
			return TreeVsKMeans{}, err
		}
		maxK := inner.withDefaults().MaxLeaves
		sw, err := res.KMeans.Sweep(res.Set.CPIs(), maxK, inner.Seed, inner.Parallelism)
		if err != nil {
			return TreeVsKMeans{}, err
		}
		var tree *rtree.Tree
		par.For(inner.Parallelism, sw.Len()+1, func(w, j int) {
			if j == 0 {
				tree = res.Matrix.Build(rtree.Options{MaxLeaves: maxK, MinLeaf: 2})
				return
			}
			sw.Run(w, j-1)
		})
		km, kk := sw.Best()
		treeRE := tree.InSampleRE(tree.Leaves())
		row := TreeVsKMeans{Name: name, TreeRE: treeRE, TreeCV: res.CV.REOpt, KMeans: km, KMeansK: kk}
		if km > 0 {
			row.Improvement = (km - treeRE) / km
		}
		return row, nil
	})
}

// SamplingRow is one workload's §7 sampling-technique evaluation.
type SamplingRow struct {
	Name      string
	Quadrant  quadrant.Quadrant
	Evals     []sampling.Eval
	Recommend sampling.Technique
	// RequiredFor2Pct is the random-sample budget the statistical
	// error-bound math demands for a 2% CPI estimate — tiny for Q-I/Q-II
	// workloads, large exactly where the paper prescribes statistical
	// sampling.
	RequiredFor2Pct int
}

// Section7Sampling evaluates every sampling technique — the paper's four
// plus two-phase stratified (Ekman) — on every named workload with the
// given interval budget; each technique becomes one column of the §7
// table in presentation order (sampling.Techniques).
func Section7Sampling(ctx context.Context, names []string, budget int, opt Options) ([]SamplingRow, error) {
	return fanOut(ctx, opt, len(names), func(ctx context.Context, i int, inner Options) (SamplingRow, error) {
		name := names[i]
		res, err := AnalyzeCtx(ctx, name, inner)
		if err != nil {
			return SamplingRow{}, err
		}
		evals, err := sampling.Evaluate(res.Set.CPIs(), res.KMeans, budget, inner.Seed)
		if err != nil {
			return SamplingRow{}, err
		}
		needed, err := sampling.RequiredSamples(res.Set.CPIs(), 0.02)
		if err != nil {
			return SamplingRow{}, err
		}
		return SamplingRow{
			Name:            name,
			Quadrant:        res.Quadrant,
			Evals:           evals,
			Recommend:       quadrant.Recommend(res.Quadrant),
			RequiredFor2Pct: needed,
		}, nil
	})
}

// SweepRow is one configuration of the §7.1 robustness sweeps.
type SweepRow struct {
	Label   string
	Name    string
	CPIVar  float64
	REOpt   float64
	MeanCPI float64
}

// Section71Intervals sweeps the EIPV interval length (the paper's
// 100M/50M/10M instructions): shrinking intervals raises both CPI variance
// and relative error.
func Section71Intervals(ctx context.Context, names []string, opt Options) ([]SweepRow, error) {
	sizes := []struct {
		label string
		insts uint64
	}{
		{"100M", workload.IntervalInsts},
		{"50M", workload.IntervalInsts / 2},
		{"10M", workload.IntervalInsts / 10},
	}
	return fanOut(ctx, opt, len(names)*len(sizes), func(ctx context.Context, i int, o Options) (SweepRow, error) {
		name := names[i/len(sizes)]
		sz := sizes[i%len(sizes)]
		o.IntervalInsts = sz.insts
		// Keep the same simulated length; more, shorter vectors.
		res, err := AnalyzeCtx(ctx, name, o)
		if err != nil {
			return SweepRow{}, err
		}
		return SweepRow{
			Label:   sz.label,
			Name:    name,
			CPIVar:  res.CPIVariance,
			REOpt:   res.CV.REOpt,
			MeanCPI: res.MeanCPI,
		}, nil
	})
}

// Section71Machines sweeps the machine model (Itanium 2 vs Pentium 4 vs
// Xeon): the paper reports higher CPI variance on the P4-class machines
// but broadly unchanged quadrant structure.
func Section71Machines(ctx context.Context, names []string, opt Options) ([]SweepRow, error) {
	machines := []cpu.Config{cpu.Itanium2(), cpu.PentiumIV(), cpu.Xeon()}
	return fanOut(ctx, opt, len(names)*len(machines), func(ctx context.Context, i int, o Options) (SweepRow, error) {
		name := names[i/len(machines)]
		m := machines[i%len(machines)]
		o.Machine = m
		res, err := AnalyzeCtx(ctx, name, o)
		if err != nil {
			return SweepRow{}, err
		}
		return SweepRow{
			Label:   m.Name,
			Name:    name,
			CPIVar:  res.CPIVariance,
			REOpt:   res.CV.REOpt,
			MeanCPI: res.MeanCPI,
		}, nil
	})
}
