package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	fuzzyphase "repro"
	"repro/internal/experiment"
	"repro/internal/quadrant"
)

var coldSuiteSpec = spec{
	name:        "cold-suite",
	op:          "one cold AnalyzeCtx of one Table 2 workload at 320 intervals, no profile store; nproc closed-loop callers over the 50 workloads",
	why:         "simulation (profiler, osim, cpu, workload, db) is most of every op, so a change to the collection loop shows here and nowhere else",
	opsPerRound: 50,
	roundBudget: 21 * time.Second, // 1 round in 15 s
	setupReps:   5,
	layerMap: map[string]string{
		"profiler.collect_ms":   "run_s, op_p50_ms",
		"profiler.minsts_per_s": "run_s, op_p50_ms",
		"eipv.build_ms":         "run_s, op_p50_ms",
		"rtree.index_ms":        "run_s, op_p50_ms",
		"rtree.cv_ms":           "run_s, op_p50_ms",
		"kmeans.fromcsr_ms":     "run_s",
	},
	new: func(cfg *config) bench { return &coldSuite{cfg: cfg} },
}

// coldSuite analyses Table 2's workloads cold, the way
// `fuzzyphase table 2 -parallel <nproc>` does, then renders the table from
// the analysis cache.
type coldSuite struct {
	cfg     *config
	golden  []byte
	opID    int
	results map[string]*experiment.Result // last untraced round, for parity
	render  []byte                        // last untraced round's table

	tracedInsts atomic.Uint64 // instructions retired by the traced collections

	attempted, failed int
	problems          checkList
}

// setup analyses the four quickest Table 2 workloads cold, one after the
// other on one worker, in this process. The first repetition pays the
// process's first touch of every layer and warms it for the suite; each
// repetition is a real analysis of each, since the cache is emptied first.
// Four analyses (about 1.2 s on the reference machine) rather than one
// keep the set-up long enough to time steadily.
func (c *coldSuite) setup(ctx context.Context, rep int) error {
	if rep == 0 {
		g, err := readGolden(c.cfg, "table2.txt")
		if err != nil {
			return err
		}
		c.golden = g
	}
	experiment.InvalidateAnalysisCache()
	for _, name := range setupWorkloads {
		res, err := experiment.AnalyzeCtx(ctx, name, experiment.Options{Seed: c.cfg.seed, Parallelism: 1})
		if err != nil {
			return err
		}
		if err := validResult(res); err != nil {
			c.problems.addf("cold-suite: set-up: %v", err)
		}
	}
	return nil
}

// setupWorkloads is what set-up analyses: the four quickest Table 2
// workloads to collect.
var setupWorkloads = []string{"spec.gzip", "spec.bzip2", "spec.wupwise", "spec.facerec"}

func (c *coldSuite) round(ctx context.Context, tr *tracer) (roundResult, error) {
	experiment.InvalidateAnalysisCache()
	rows := experiment.Table2Workloads()
	opt := experiment.Options{Seed: c.cfg.seed, Parallelism: innerSplit(c.cfg.nproc, len(rows))}
	ok := make([]bool, len(rows))
	results := make([]*experiment.Result, len(rows))
	// The traced ops keep their analyses until the round ends, as the memo
	// cache keeps the untraced ones, so both rounds run on a like heap.
	traced := make([]*analysis, len(rows))
	firstOp := c.opID + 1
	c.opID += len(rows)

	before := snapshotCounters()
	start := time.Now()
	lat, err := closedLoop(ctx, c.cfg.nproc, len(rows), func(ctx context.Context, i int) error {
		name := rows[i].Name
		if tr == nil {
			res, err := experiment.AnalyzeCtx(ctx, name, opt)
			if err != nil {
				return err
			}
			results[i] = res
			rows[i].CPIVar, rows[i].REOpt, rows[i].KOpt, rows[i].Quadrant = res.CPIVariance, res.CV.REOpt, res.CV.KOpt, res.Quadrant
			ok[i] = validResult(res) == nil
			return nil
		}
		op := firstOp + i
		root := tr.begin("op", 0, op)
		a, err := tracedAnalyze(ctx, tr, root, op, name, opt, nil)
		tr.end(root)
		if err != nil {
			return err
		}
		traced[i] = a
		c.tracedInsts.Add(a.insts)
		rows[i].CPIVar, rows[i].REOpt, rows[i].KOpt = a.set.CPIVariance(), a.cv.REOpt, a.cv.KOpt
		rows[i].Quadrant = quadrant.Classify(rows[i].CPIVar, a.cv.REOpt)
		ref := c.results[name]
		ok[i] = ref != nil && sameValue(a.cv, ref.CV) && sameValue(rows[i].CPIVar, ref.CPIVariance)
		if !ok[i] {
			c.problems.addf("cold-suite: %s: traced CVResult differs from AnalyzeCtx's", name)
		}
		return nil
	})
	wall := time.Since(start)
	counts := countersSince(before, len(rows))
	runtime.KeepAlive(traced)
	if err != nil {
		return roundResult{}, err
	}

	var table bytes.Buffer
	experiment.RenderTable2(&table, rows)
	roundOK := c.checkTable(ctx, table.Bytes(), tr != nil)
	if tr == nil {
		c.results = map[string]*experiment.Result{}
		for i, r := range rows {
			c.results[r.Name] = results[i]
		}
		c.render = table.Bytes()
	}
	for i := range ok {
		c.attempted++
		if !ok[i] || !roundOK {
			c.failed++
		}
	}
	return roundResult{wall: wall, ops: lat, counts: counts}, nil
}

// checkTable checks one round's Table 2: untraced, TableCtx must render it
// from the analysis cache (no new analysis) identical to the table built
// from the ops' own results; traced, the traced rows must render the
// untraced table. At seed 1 both must equal results/table2.txt.
func (c *coldSuite) checkTable(ctx context.Context, table []byte, traced bool) bool {
	ok := true
	if traced {
		if !bytes.Equal(table, c.render) {
			c.problems.addf("cold-suite: traced Table 2 differs from the untraced one: %s", firstDiff(table, c.render))
			ok = false
		}
	} else {
		before := experiment.AnalysisCacheStats()
		var fromCache bytes.Buffer
		opt := experiment.Options{Seed: c.cfg.seed, Parallelism: c.cfg.nproc}
		if err := fuzzyphase.TableCtx(ctx, 2, opt, &fromCache, nil); err != nil {
			c.problems.addf("cold-suite: TableCtx(2): %v", err)
			return false
		}
		if after := experiment.AnalysisCacheStats(); after.Misses != before.Misses {
			c.problems.addf("cold-suite: TableCtx(2) ran %d new analyses, want 0", after.Misses-before.Misses)
			ok = false
		}
		if !bytes.Equal(fromCache.Bytes(), table) {
			c.problems.addf("cold-suite: cached Table 2 differs from the ops' results: %s", firstDiff(fromCache.Bytes(), table))
			ok = false
		}
	}
	if c.golden != nil && !bytes.Equal(table, c.golden) {
		c.problems.addf("cold-suite: Table 2 differs from results/table2.txt: %s", firstDiff(table, c.golden))
		ok = false
	}
	return ok
}

// validResult checks what a cold analysis must satisfy at any seed: a full
// RE curve whose minimum is RE_kopt, and a quadrant that follows from the
// result's own coordinates.
func validResult(res *experiment.Result) error {
	cv := res.CV
	switch {
	case res.Intervals < 2*folds:
		return fmt.Errorf("%s: %d intervals", res.Name, res.Intervals)
	case len(cv.RE) != maxLeaves:
		return fmt.Errorf("%s: RE curve has %d points, want %d", res.Name, len(cv.RE), maxLeaves)
	case cv.KOpt < 1 || cv.KOpt > len(cv.RE) || cv.RE[cv.KOpt-1] != cv.REOpt:
		return fmt.Errorf("%s: k_opt %d does not index RE_opt %v", res.Name, cv.KOpt, cv.REOpt)
	case math.IsNaN(res.CPIVariance) || res.CPIVariance < 0:
		return fmt.Errorf("%s: CPI variance %v", res.Name, res.CPIVariance)
	case res.Quadrant != quadrant.Classify(res.CPIVariance, cv.REOpt):
		return fmt.Errorf("%s: quadrant %v does not follow from its coordinates", res.Name, res.Quadrant)
	}
	for _, re := range cv.RE {
		if math.IsNaN(re) || re < cv.REOpt {
			return fmt.Errorf("%s: RE curve point %v below RE_opt %v", res.Name, re, cv.REOpt)
		}
	}
	return nil
}

func (c *coldSuite) finish(context.Context) error { return nil }

func (c *coldSuite) layers(_ context.Context, tr *tracer) (layerReport, error) {
	lt := aggregate(tr.snapshot())
	ops := lt.count["op"]
	m := map[string]float64{}
	comps := []string{"profiler.collect_ms", "eipv.build_ms", "rtree.index_ms", "rtree.cv_ms", "kmeans.fromcsr_ms"}
	for _, name := range comps {
		m[name] = perOp(lt, name[:len(name)-3], ops)
	}
	if collect := lt.self["profiler.collect"]; collect > 0 {
		m["profiler.minsts_per_s"] = float64(c.tracedInsts.Load()) / 1e6 / collect.Seconds()
	}
	return layerReport{metrics: m, components: comps}, nil
}

func (c *coldSuite) tally() (int, int, []string) { return c.attempted, c.failed, c.problems.all() }

func (c *coldSuite) close() {}
