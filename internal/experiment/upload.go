// External-profile analysis: the workload-agnostic back half of the
// pipeline (dense indexing → regression-tree cross-validation → quadrant
// classification → sampling recommendation) applied to an uploaded
// profilefmt.Profile instead of a simulated collection. Results flow
// through the same memoized Analyze cache, keyed by the caller-supplied
// content hash plus the option fields that actually influence the
// analysis, so repeated uploads of one profile hit warm regardless of
// encoding.
package experiment

import (
	"context"
	"fmt"

	"repro/internal/profilefmt"
	"repro/internal/quadrant"
)

// AnalyzeProfileCtx analyzes an externally supplied EIPV profile: it
// indexes the rows straight into the dense kernels, cross-validates the
// regression tree and classifies the quadrant — exactly the computation
// the native pipeline runs after EIPV construction, so a profile exported
// from a built-in workload reproduces that workload's RE curve and
// quadrant bit for bit.
//
// contentKey must identify the profile bytes (callers pass a content
// hash); results are memoized in the process-wide Analyze cache under
// (contentKey, the analysis-relevant options), with the same singleflight
// and LRU-bound semantics as Analyze. Fields of opt that only affect
// simulation (intervals, warmup, machine, period) are ignored: the
// uploaded rows are already built.
func AnalyzeProfileCtx(ctx context.Context, contentKey string, p *profilefmt.Profile, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	key := fmt.Sprintf("upload|%s|seed=%d|ml=%d|folds=%d", contentKey, opt.Seed, opt.MaxLeaves, opt.Folds)
	return analysisCache.Get(ctx, key, func(flight context.Context) (*Result, error) {
		return analyzeProfileUncached(flight, p, opt)
	})
}

// analyzeProfileUncached is the uncached upload pipeline; opt already
// carries defaults.
func analyzeProfileUncached(ctx context.Context, p *profilefmt.Profile, opt Options) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(p.Rows) < opt.Folds*2 {
		return nil, fmt.Errorf("%w: %d rows is too few for %d-fold cross-validation (need >= %d)",
			profilefmt.ErrInvalid, len(p.Rows), opt.Folds, opt.Folds*2)
	}
	mtx, km, err := p.Index()
	if err != nil {
		return nil, err
	}
	res, err := classify(ctx, mtx, km, opt, fmt.Sprintf("profile %q", p.Name))
	if err != nil {
		return nil, err
	}
	res.Name, res.Machine = p.Name, p.Machine
	return res, nil
}

// Report is the structured form of an analysis — what POST /v1/analyze
// returns and what `fuzzyphase import` prints. It carries the RE curve,
// the quadrant coordinates and the §7 sampling recommendation; JSON
// numbers round-trip float64 bit-exactly, so two analyses are identical
// iff their marshaled Reports are.
type Report struct {
	Name       string  `json:"name"`
	Machine    string  `json:"machine,omitempty"`
	Intervals  int     `json:"intervals"`
	UniqueEIPs int     `json:"unique_eips"`
	MeanCPI    float64 `json:"mean_cpi"`
	// CPIVariance and REOpt are the quadrant coordinates (§7).
	CPIVariance float64 `json:"cpi_variance"`
	// RE[k-1] is the cross-validated relative error of the k-chamber tree.
	RE                []float64 `json:"re"`
	KOpt              int       `json:"k_opt"`
	REOpt             float64   `json:"re_opt"`
	REAsym            float64   `json:"re_asym"`
	KAsym             int       `json:"k_asym"`
	ExplainedVariance float64   `json:"explained_variance"`
	Quadrant          string    `json:"quadrant"`
	Rationale         string    `json:"rationale"`
	// Recommendation is the sampling technique suited to the quadrant.
	Recommendation string `json:"recommendation"`
}

// NewReport summarizes a Result as its structured Report.
func NewReport(res *Result) Report {
	return Report{
		Name:              res.Name,
		Machine:           res.Machine,
		Intervals:         res.Intervals,
		UniqueEIPs:        res.UniqueEIPs,
		MeanCPI:           res.MeanCPI,
		CPIVariance:       res.CPIVariance,
		RE:                res.CV.RE,
		KOpt:              res.CV.KOpt,
		REOpt:             res.CV.REOpt,
		REAsym:            res.CV.REAsym,
		KAsym:             res.CV.KAsym,
		ExplainedVariance: res.CV.ExplainedVariance(),
		Quadrant:          res.Quadrant.String(),
		Rationale:         quadrant.Rationale(res.Quadrant),
		Recommendation:    quadrant.Recommend(res.Quadrant).String(),
	}
}

// QuadrantReport is the compact classification-only form POST /v1/quadrant
// returns.
type QuadrantReport struct {
	Name           string  `json:"name"`
	Intervals      int     `json:"intervals"`
	CPIVariance    float64 `json:"cpi_variance"`
	REOpt          float64 `json:"re_opt"`
	KOpt           int     `json:"k_opt"`
	Quadrant       string  `json:"quadrant"`
	Rationale      string  `json:"rationale"`
	Recommendation string  `json:"recommendation"`
}

// NewQuadrantReport summarizes a Result as its quadrant classification.
func NewQuadrantReport(res *Result) QuadrantReport {
	return QuadrantReport{
		Name:           res.Name,
		Intervals:      res.Intervals,
		CPIVariance:    res.CPIVariance,
		REOpt:          res.CV.REOpt,
		KOpt:           res.CV.KOpt,
		Quadrant:       res.Quadrant.String(),
		Rationale:      quadrant.Rationale(res.Quadrant),
		Recommendation: quadrant.Recommend(res.Quadrant).String(),
	}
}
