// Package experiment wires the full paper pipeline together — workload →
// simulated machine → sampling profiler → EIPVs → regression-tree
// cross-validation → quadrant classification — and regenerates every table
// and figure of the paper's evaluation (the per-figure constructors live in
// figures.go; text rendering in render.go).
package experiment

import (
	"context"
	"fmt"

	"repro/internal/addr"
	"repro/internal/cpu"
	"repro/internal/eipv"
	"repro/internal/kmeans"
	"repro/internal/profiler"
	"repro/internal/quadrant"
	"repro/internal/rtree"
	"repro/internal/stats"
	"repro/internal/workload"
	_ "repro/internal/workload/all" // register every workload
)

// Options parameterize one analysis run.
type Options struct {
	// Intervals is the number of EIPV intervals to simulate (including
	// warmup). Zero means DefaultIntervals.
	Intervals int
	// Warmup is how many leading intervals to discard (cold caches and
	// pools; the paper analyzes steady-state windows). Zero means
	// DefaultWarmup; negative means none.
	Warmup int
	// Machine is the CPU model (zero value: Itanium 2).
	Machine cpu.Config
	// Seed fixes all randomness.
	Seed uint64
	// IntervalInsts overrides the EIPV interval length (zero: the paper's
	// 100M-equivalent). Used by the §7.1 interval sweep.
	IntervalInsts uint64
	// PeriodOverride overrides the profiler period (zero: workload
	// preference).
	PeriodOverride uint64
	// ThreadSeparated builds per-thread EIPVs (§5.2).
	ThreadSeparated bool
	// MaxLeaves caps the tree size (zero: the paper's 50).
	MaxLeaves int
	// Folds for cross-validation (zero: the paper's 10).
	Folds int
	// Parallelism bounds the worker goroutines the analysis engine may
	// use: the per-workload fan-out of the table/figure pipelines, the
	// lookahead trace generators of a cold collection, the
	// cross-validation folds, and the §4.6 k-means grid. Zero means
	// runtime.NumCPU(); 1 forces the serial path.
	// Results are bit-for-bit identical at every setting — parallelism
	// only changes wall-clock time, never output.
	Parallelism int
}

// Defaults for Options.
const (
	DefaultIntervals = 320
	DefaultWarmup    = 10
	DefaultMaxLeaves = 50
	DefaultFolds     = 10
)

func (o Options) withDefaults() Options {
	if o.Intervals == 0 {
		o.Intervals = DefaultIntervals
	}
	if o.Warmup == 0 {
		o.Warmup = DefaultWarmup
	}
	if o.Warmup < 0 {
		o.Warmup = 0
	}
	if o.Machine.Name == "" {
		o.Machine = cpu.Itanium2()
	}
	if o.IntervalInsts == 0 {
		o.IntervalInsts = workload.IntervalInsts
	}
	if o.MaxLeaves == 0 {
		o.MaxLeaves = DefaultMaxLeaves
	}
	if o.Folds == 0 {
		o.Folds = DefaultFolds
	}
	return o
}

// Result is the complete analysis of one workload. It keeps no raw
// samples: the spread figures read them back through the profile store,
// which retains each collection in encoded form, so a cached Result does
// not pin its profile's samples.
type Result struct {
	Name    string
	Machine string

	// The quadrant coordinates (§7): interval-CPI variance and the
	// regression tree's cross-validated relative error.
	CPIVariance float64
	CV          rtree.CVResult
	Quadrant    quadrant.Quadrant

	MeanCPI    float64
	UniqueEIPs int
	Intervals  int

	// Breakdown is the run's mean CPI decomposition (work, fe, exe,
	// other).
	Breakdown [4]float64

	// OSFraction and switch statistics (§5.2 context).
	OSFraction     float64
	SwitchesPerSec float64

	// Set retains the steady-state EIPVs for downstream analyses
	// (sampling evaluation, k-means comparison, figures).
	Set *eipv.Set
	// Matrix is the analysed rows in the regression-tree kernel's indexed
	// columnar form (dense feature IDs, presorted columns); downstream
	// tree builds (explain, §4.6) reuse it instead of indexing again.
	Matrix *rtree.Matrix
	// KMeans wraps Matrix's row CSR for the clustering/sampling kernels
	// (§4.6, §7) — the same indexed dataset, shared zero-copy, so every
	// downstream consumer accumulates floats in the one canonical
	// (ascending-feature-ID) order.
	KMeans *kmeans.Matrix
	// Space maps EIPs back to named code regions.
	Space *addr.Space
}

// LabelEIP names the code region containing pc ("db.sort+0x40"), falling
// back to the raw address.
func (r *Result) LabelEIP(pc uint64) string {
	if r.Space != nil {
		if reg, ok := r.Space.Find(pc); ok {
			return fmt.Sprintf("%s+%#x", reg.Name, pc-reg.Base)
		}
	}
	return fmt.Sprintf("%#x", pc)
}

// Dataset returns the steady-state EIPVs in the regression tree's rank
// form: the set's EIP table and its vectors' rank and count slices,
// aliased with no per-entry copy, and a fresh slice of interval CPIs as
// the responses.
func Dataset(s *eipv.Set) rtree.Dataset {
	d := rtree.Dataset{
		EIPs:   s.EIPTable,
		Ys:     s.CPIs(),
		Ranks:  make([][]int32, len(s.Vectors)),
		Counts: make([][]int32, len(s.Vectors)),
	}
	for i := range s.Vectors {
		d.Ranks[i], d.Counts[i] = s.Vectors[i].Ranks, s.Vectors[i].Counts
	}
	return d
}

// buildEIPVs converts a collection into its steady-state EIPV set
// according to opt (whole-system or thread-separated, warmup-trimmed).
// opt must already carry defaults.
func buildEIPVs(col *profiler.CollectResult, opt Options) *eipv.Set {
	if opt.ThreadSeparated {
		// Trim warmup on the global timeline, then cut per-thread
		// vectors; skipping whole per-thread vectors would discard most
		// of a many-threaded run.
		trimmed := col.Profile.After(uint64(opt.Warmup) * opt.IntervalInsts)
		return eipv.BuildPerThread(trimmed, opt.IntervalInsts)
	}
	set := eipv.Build(col.Profile, opt.IntervalInsts)
	return set.SkipWarmup(opt.Warmup)
}

// Analyze runs the full pipeline for a registered workload name. Results
// are memoized process-wide by (name, options): repeated calls with an
// equivalent configuration return the same *Result without re-simulating,
// and concurrent calls for the same key share one computation. Callers must
// treat the returned Result as immutable. See AnalysisCacheStats and
// InvalidateAnalysisCache.
func Analyze(name string, opt Options) (*Result, error) {
	return AnalyzeCtx(context.Background(), name, opt)
}

// AnalyzeCtx is Analyze with cooperative cancellation: when ctx expires the
// call detaches and returns ctx.Err(). The underlying pipeline runs on a
// flight-owned context shared by every caller of the same key — simulation
// and cross-validation are actually stopped only when the last interested
// caller has gone, and a cancelled flight is never retained, so an aborted
// request cannot poison the cache for later callers.
func AnalyzeCtx(ctx context.Context, name string, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	return analysisCache.Get(ctx, cacheKey(name, opt), func(flight context.Context) (*Result, error) {
		col, err := collectCached(flight, name, opt, false)
		if err != nil {
			return nil, err
		}
		return analyzeCollection(flight, name, col, opt)
	})
}

// AnalyzeCollection runs the post-collection half of the pipeline (EIPVs,
// regression-tree cross-validation, quadrant) on an already collected
// profile, such as one written by Collect and read back with
// profiler.DecodeResult. Only the analysis fields of opt apply; the
// result is not memoized.
func AnalyzeCollection(ctx context.Context, name string, col *profiler.CollectResult, opt Options) (*Result, error) {
	return analyzeCollection(ctx, name, col, opt.withDefaults())
}

// analyzeCollection is the pipeline after collection; opt already carries
// defaults. ctx cancels the cross-validation (polled per fold).
func analyzeCollection(ctx context.Context, name string, col *profiler.CollectResult, opt Options) (*Result, error) {
	set := buildEIPVs(col, opt)
	if len(set.Vectors) < opt.Folds*2 {
		return nil, fmt.Errorf("experiment: %s produced only %d steady-state EIPVs", name, len(set.Vectors))
	}

	mtx := rtree.IndexDataset(Dataset(set))
	rs, rf, rc := mtx.RowCSR()
	res, err := classify(ctx, mtx, kmeans.FromCSR(mtx.EIPs(), rs, rf, rc), opt, name)
	if err != nil {
		return nil, err
	}
	res.Name, res.Machine = name, opt.Machine.Name
	res.Set = set
	res.Space = col.Space

	// Mean breakdown over steady-state vectors.
	for _, v := range set.Vectors {
		res.Breakdown[0] += v.Work
		res.Breakdown[1] += v.FE
		res.Breakdown[2] += v.EXE
		res.Breakdown[3] += v.Other
	}
	for i := range res.Breakdown {
		res.Breakdown[i] /= float64(len(set.Vectors))
	}

	res.OSFraction = col.OS.OSFraction()
	if col.Seconds > 0 {
		res.SwitchesPerSec = float64(col.OS.ContextSwitches) / col.Seconds
	}
	return res, nil
}

// classify is the analysis tail the native and upload pipelines share:
// it cross-validates the regression tree over mtx on the options' worker
// budget (opt already carries defaults), places the result in its
// quadrant, and fills the Result fields both pipelines report. The
// quadrant's CPI series is mtx's responses; km is the clustering view of
// the same rows. label names the analysis in the error; the caller sets
// Name, Machine and whatever else only it knows.
func classify(ctx context.Context, mtx *rtree.Matrix, km *kmeans.Matrix, opt Options, label string) (*Result, error) {
	treeOpt := rtree.Options{MaxLeaves: opt.MaxLeaves, MinLeaf: 2, Parallelism: Workers(opt.Parallelism)}
	cv, err := mtx.CrossValidateCtx(ctx, treeOpt, opt.Folds, opt.Seed)
	if err != nil {
		return nil, fmt.Errorf("experiment: %s: %w", label, err)
	}
	cpis := make([]float64, mtx.NumRows())
	for i := range cpis {
		cpis[i] = mtx.Y(i)
	}
	cpiVar := stats.Var(cpis)
	return &Result{
		CPIVariance: cpiVar,
		CV:          cv,
		Quadrant:    quadrant.Classify(cpiVar, cv.REOpt),
		MeanCPI:     stats.Mean(cpis),
		UniqueEIPs:  mtx.NumFeatures(),
		Intervals:   mtx.NumRows(),
		Matrix:      mtx,
		KMeans:      km,
	}, nil
}
