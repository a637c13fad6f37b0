package experiment

import (
	"context"
	"fmt"
	"sort"
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

// Figure2 reproduces "Relative Error Trend for ODB-C & SjAS": ODB-C's
// curve rises above one with k while SjAS stays flat just under one.
func Figure2(ctx context.Context, opt Options) ([]Curve, error) {
	names := []string{"odb-c", "sjas"}
	results, err := analyzeMany(ctx, names, opt)
	if err != nil {
		return nil, err
	}
	out := make([]Curve, len(results))
	for i, res := range results {
		out[i] = curveOf(res, names[i])
	}
	return out, nil
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

// Figure3 reproduces the EIP & CPI spread of ODB-C and SjAS: tens of
// thousands of uniformly exercised EIPs over a small-variance CPI band.
func Figure3(ctx context.Context, opt Options) ([]SpreadData, error) {
	results, err := analyzeMany(ctx, []string{"odb-c", "sjas"}, opt)
	if err != nil {
		return nil, err
	}
	out := make([]SpreadData, len(results))
	for i, res := range results {
		out[i] = spreadOf(res)
	}
	return out, nil
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

// Figure4 reproduces the ODB-C CPI breakdown (EXE/L3 stalls dominant).
func Figure4(ctx context.Context, opt Options) (BreakdownSeries, error) {
	res, err := AnalyzeCtx(ctx, "odb-c", opt)
	if err != nil {
		return BreakdownSeries{}, err
	}
	return breakdownOf(res), nil
}

// Figure5 reproduces the SjAS CPI breakdown (EXE 30-40%).
func Figure5(ctx context.Context, opt Options) (BreakdownSeries, error) {
	res, err := AnalyzeCtx(ctx, "sjas", opt)
	if err != nil {
		return BreakdownSeries{}, err
	}
	return breakdownOf(res), nil
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

// Figure6 reproduces ODB-C relative error with & without threads.
func Figure6(ctx context.Context, opt Options) (ThreadComparison, error) {
	return threadComparison(ctx, "odb-c", opt)
}

// Figure7 reproduces SjAS relative error with & without threads.
func Figure7(ctx context.Context, opt Options) (ThreadComparison, error) {
	return threadComparison(ctx, "sjas", opt)
}

// Figure8 reproduces the Q13 relative error trend (drops fast to a low
// asymptote at small k).
func Figure8(ctx context.Context, opt Options) (Curve, error) {
	res, err := AnalyzeCtx(ctx, "odb-h.q13", opt)
	if err != nil {
		return Curve{}, err
	}
	return curveOf(res, "odb-h.q13"), nil
}

// Figure9 reproduces the Q13 EIP & CPI spread (loopy, strongly correlated).
func Figure9(ctx context.Context, opt Options) (SpreadData, error) {
	res, err := AnalyzeCtx(ctx, "odb-h.q13", opt)
	if err != nil {
		return SpreadData{}, err
	}
	return spreadOf(res), nil
}

// Figure10 reproduces the Q18 relative error trend (flat above one).
func Figure10(ctx context.Context, opt Options) (Curve, error) {
	res, err := AnalyzeCtx(ctx, "odb-h.q18", opt)
	if err != nil {
		return Curve{}, err
	}
	return curveOf(res, "odb-h.q18"), nil
}

// Figure11 reproduces the Q18 EIP & CPI spread (same EIPs, erratic CPI).
func Figure11(ctx context.Context, opt Options) (SpreadData, error) {
	res, err := AnalyzeCtx(ctx, "odb-h.q18", opt)
	if err != nil {
		return SpreadData{}, err
	}
	return spreadOf(res), nil
}

// Figure12 reproduces the Q18 CPI breakdown (no single dominant,
// time-shifting bottleneck).
func Figure12(ctx context.Context, opt Options) (BreakdownSeries, error) {
	res, err := AnalyzeCtx(ctx, "odb-h.q18", opt)
	if err != nil {
		return BreakdownSeries{}, err
	}
	return breakdownOf(res), nil
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
	Data   rtree.Dataset
	Splits []rtree.Split
	// ChamberCPI maps each EIPV index to its chamber's mean CPI.
	ChamberCPI []float64
}

// Table1 builds the paper's example regression tree.
func Table1() Table1Result {
	data := rtree.ExampleTable1()
	tree := rtree.Build(data, rtree.Options{MaxLeaves: 4, MinLeaf: 1})
	out := Table1Result{Data: data, Splits: tree.Splits()}
	for _, p := range data {
		out.ChamberCPI = append(out.ChamberCPI, tree.Predict(p.Counts))
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
