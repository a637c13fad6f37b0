package experiment

import (
	"context"
	"fmt"
	"io"

	"repro/internal/profiler"
	"repro/internal/rtree"
)

// BBVComparison contrasts CPI predictability from sampled EIP vectors
// against full basic-block vectors for one workload — the comparison the
// paper explicitly defers ("a direct comparison with BBVs is beyond the
// scope of this paper", §3.3) because its production systems could not be
// instrumented. The simulator observes every block retirement, so both
// representations come from the *same run*.
type BBVComparison struct {
	Name string
	// EIPV is the regression-tree cross-validation on sampled vectors
	// (one sample per million-instruction-equivalent).
	EIPV rtree.CVResult
	// BBV is the same analysis on exact block-execution counts.
	BBV rtree.CVResult
	// EIPVFeatures and BBVFeatures count the distinct features each
	// representation exposes.
	EIPVFeatures int
	BBVFeatures  int
}

// CompareBBV runs the deferred §3.3 comparison for each named workload,
// fanned across Options.Parallelism workers. It bypasses the Analyze cache:
// the collection differs from the main pipeline's (BBV accounting on). ctx
// cancels the fan-out, the per-workload simulations, and the fold searches.
func CompareBBV(ctx context.Context, names []string, opt Options) ([]BBVComparison, error) {
	opt = opt.withDefaults()
	return fanOut(ctx, opt, len(names), func(ctx context.Context, i int, inner Options) (BBVComparison, error) {
		name := names[i]
		col, err := collectCached(ctx, name, opt, true)
		if err != nil {
			return BBVComparison{}, err
		}
		treeOpt := rtree.Options{MaxLeaves: opt.MaxLeaves, MinLeaf: 2, Parallelism: inner.Parallelism}

		// Sampled EIPVs, as in the main pipeline, then full BBVs over the
		// same steady-state window.
		eipvMtx := indexSet(buildEIPVs(col, opt))
		out := BBVComparison{Name: name, EIPVFeatures: eipvMtx.NumFeatures()}
		if out.EIPV, err = eipvMtx.CrossValidateCtx(ctx, treeOpt, opt.Folds, opt.Seed); err != nil {
			return BBVComparison{}, fmt.Errorf("bbv: %s eipv: %w", name, err)
		}
		bbvMtx, err := indexBBV(col.BBV, opt.Warmup)
		if err == nil {
			out.BBVFeatures = bbvMtx.NumFeatures()
			out.BBV, err = bbvMtx.CrossValidateCtx(ctx, treeOpt, opt.Folds, opt.Seed)
		}
		if err != nil {
			return BBVComparison{}, fmt.Errorf("bbv: %s bbv: %w", name, err)
		}
		return out, nil
	})
}

// indexBBV indexes the steady-state basic-block vectors, those from
// interval warmup on, with the interval CPIs as the responses. The rows
// are already in block-PC order, so they go to rtree.IndexRows as they
// are.
func indexBBV(bbv []profiler.BlockVector, warmup int) (*rtree.Matrix, error) {
	var steady []*profiler.BlockVector
	var ys []float64
	for i := range bbv {
		if bbv[i].Index >= warmup {
			steady, ys = append(steady, &bbv[i]), append(ys, bbv[i].CPI)
		}
	}
	return rtree.IndexRows(ys, func(i int) ([]uint64, []int64) { return steady[i].PCs, steady[i].Counts })
}

// RenderBBVComparison writes the §3.3 comparison table.
func RenderBBVComparison(w io.Writer, rows []BBVComparison) {
	fmt.Fprintln(w, "sampled EIP vectors vs full basic-block vectors (the paper's deferred 3.3 comparison)")
	fmt.Fprintf(w, "%-14s %12s %10s %12s %10s\n", "benchmark", "eipv-RE", "eipv-feats", "bbv-RE", "bbv-feats")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %12.3f %10d %12.3f %10d\n",
			r.Name, r.EIPV.REOpt, r.EIPVFeatures, r.BBV.REOpt, r.BBVFeatures)
	}
	fmt.Fprintln(w, "# close RE values mean the 1-per-1M sampling of 3.1 loses little predictive information")
}
