// Package fuzzyphase reproduces "The Fuzzy Correlation between Code and
// Performance Predictability" (Annavaram, Rakvic, Polito, Bouguet, Hankins,
// Davies — MICRO-37, 2004) as an executable system.
//
// The library bundles everything the paper's methodology needs:
//
//   - simulated server workloads (an OLTP database, 22 DSS queries, a J2EE
//     application server, and 26 SPEC CPU2K analogs) running on a
//     cycle-approximate machine model with caches, branch prediction, an
//     OS scheduler and disks;
//   - a VTune-like sampling profiler and EIP-vector construction;
//   - regression-tree cross-validation quantifying how well EIPs predict
//     CPI (the paper's central measurement);
//   - the quadrant classification and per-quadrant sampling-technique
//     recommendation of §7.
//
// The simplest entry point is Analyze:
//
//	res, err := fuzzyphase.Analyze("odb-h.q13", fuzzyphase.Options{Seed: 1})
//	if err != nil { ... }
//	fmt.Print(fuzzyphase.Summary(res))
//
// Every table and figure of the paper can be regenerated through the
// Figure and Table functions or the cmd/fuzzyphase CLI. All analyses are
// deterministic for a fixed Options.Seed — including under parallel
// execution (Options.Parallelism), which changes wall-clock time but never
// output. Repeated analyses of the same configuration are served from a
// process-wide memoization cache (AnalysisCacheStats,
// InvalidateAnalysisCache).
package fuzzyphase

import (
	"context"
	"fmt"
	"io"

	"repro/internal/experiment"
	"repro/internal/profstore"
	"repro/internal/quadrant"
	"repro/internal/sampling"
	"repro/internal/workload"
	_ "repro/internal/workload/all" // register every workload
)

// Options parameterize an analysis run; the zero value reproduces the
// paper's setup (Itanium 2 machine, 100M-instruction-equivalent intervals,
// 10-fold cross-validation, trees of up to 50 chambers).
type Options = experiment.Options

// Result is a complete per-workload analysis: the quadrant coordinates
// (CPI variance and relative error), the RE_k curve, CPI breakdown, and
// the underlying EIPVs.
type Result = experiment.Result

// Quadrant identifies one cell of the paper's §7 classification.
type Quadrant = quadrant.Quadrant

// The four quadrants.
const (
	QI   = quadrant.QI
	QII  = quadrant.QII
	QIII = quadrant.QIII
	QIV  = quadrant.QIV
)

// Technique is a §7 sampling strategy.
type Technique = sampling.Technique

// Workloads returns the names of every runnable workload: "odb-c", "sjas",
// "odb-h.q1".."odb-h.q22", and "spec.<name>" for the 26 SPEC CPU2K
// analogs.
func Workloads() []string { return workload.Names() }

// Analyze runs the full paper pipeline on the named workload: simulate,
// profile, build EIPVs, cross-validate a regression tree, classify.
//
// Results are memoized process-wide by (name, options) and shared between
// callers — treat them as immutable. Options.Parallelism bounds the worker
// goroutines of the analysis engine (0 = one per CPU); outputs are
// bit-for-bit identical at every parallelism level.
func Analyze(name string, opt Options) (*Result, error) {
	return experiment.Analyze(name, opt)
}

// AnalyzeCtx is Analyze with cooperative cancellation: when ctx expires the
// call returns ctx.Err(). Concurrent callers of the same configuration
// share one pipeline flight; the flight is aborted only when every caller
// waiting on it has gone, and an aborted flight is never cached, so a
// cancelled request cannot poison results for later callers.
func AnalyzeCtx(ctx context.Context, name string, opt Options) (*Result, error) {
	return experiment.AnalyzeCtx(ctx, name, opt)
}

// SetAnalysisCacheCap bounds the Analyze memoization cache to at most n
// completed results (LRU eviction) and returns the previous cap. n <= 0
// removes the bound — the default, which keeps the CLI's
// simulate-once-per-configuration behavior.
func SetAnalysisCacheCap(n int) int { return experiment.SetAnalysisCacheCap(n) }

// CacheStats is a snapshot of the Analyze memoization counters.
type CacheStats = experiment.CacheStats

// AnalysisCacheStats reports hits/misses/deduplicated flights of the
// process-wide Analyze cache.
func AnalysisCacheStats() CacheStats { return experiment.AnalysisCacheStats() }

// InvalidateAnalysisCache drops every memoized Analyze result (and the
// profile store's in-memory tier); subsequent calls re-simulate, unless an
// on-disk profile store serves them.
func InvalidateAnalysisCache() { experiment.InvalidateAnalysisCache() }

// SetProfileDir attaches a persistent profile store at dir (created if
// missing): collected profiles — the expensive simulation front-end of
// every analysis — are content-addressed by their full configuration and
// reused across processes. "" detaches the store (the default,
// memory-only). An unwritable directory degrades the store to memory-only
// with a logged warning rather than failing analyses.
func SetProfileDir(dir string) error { return experiment.SetProfileDir(dir) }

// ProfileStats is a snapshot of the profile store counters.
type ProfileStats = profstore.Stats

// ProfileStoreStats reports the profile store's tier hits, writes, and
// corruption recoveries.
func ProfileStoreStats() ProfileStats { return experiment.ProfileStoreStats() }

// Summary renders a Result as a short human-readable report.
func Summary(res *Result) string { return experiment.Summary(res) }

// Classify places a workload in the quadrant space by its CPI variance and
// relative error (thresholds 0.01 and 0.15, §7).
func Classify(cpiVariance, relativeError float64) Quadrant {
	return quadrant.Classify(cpiVariance, relativeError)
}

// Recommend returns the sampling technique best suited to a quadrant.
func Recommend(q Quadrant) Technique { return quadrant.Recommend(q) }

// Figure regenerates the numbered paper figure (2-13) as text on w.
func Figure(id int, opt Options, w io.Writer) error {
	return FigureCtx(context.Background(), id, opt, w)
}

// FigureCtx is Figure with cooperative cancellation of the underlying
// analyses.
func FigureCtx(ctx context.Context, id int, opt Options, w io.Writer) error {
	return experiment.WriteFigure(ctx, w, id, opt, false)
}

// Table regenerates the numbered paper table (1 or 2) as text on w. opt is
// ignored for Table 1 (it is a fixed worked example). progress, if
// non-nil, receives each workload name as Table 2 completes it.
func Table(id int, opt Options, w io.Writer, progress func(string)) error {
	return TableCtx(context.Background(), id, opt, w, progress)
}

// TableCtx is Table with cooperative cancellation of the underlying
// analyses.
func TableCtx(ctx context.Context, id int, opt Options, w io.Writer, progress func(string)) error {
	switch id {
	case 1:
		experiment.RenderTable1(w, experiment.Table1())
	case 2:
		rows, err := experiment.Table2(ctx, opt, func(name string, _ experiment.Table2Row) {
			if progress != nil {
				progress(name)
			}
		})
		if err != nil {
			return err
		}
		experiment.RenderTable2(w, rows)
	default:
		return fmt.Errorf("no table %d", id)
	}
	return nil
}
