package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/experiment"
	"repro/internal/profstore"
	"repro/internal/quadrant"
	"repro/internal/rtree"
	"repro/internal/sampling"
)

var warmStoreSpec = spec{
	name:        "warm-store",
	op:          "one workload's warm regeneration of its §4.6 and/or §7 rows from the on-disk profile store, after InvalidateAnalysisCache; one closed-loop caller over the 9 workloads",
	why:         "simulation is zero: time goes to the profstore disk decode, EIPV build, index, cross-validation, k-means BestRE and sampling.Evaluate",
	opsPerRound: len(warmNames()),
	roundBudget: 2150 * time.Millisecond, // 7 rounds in 15 s
	setupReps:   3,
	layerMap: map[string]string{
		"profstore.disk_get_ms": "run_s",
		"profstore.mem_hits":    "run_s",
		"profstore.disk_hits":   "run_s",
		"profstore.misses":      "run_s",
		"eipv.build_ms":         "run_s, op_p50_ms",
		"rtree.index_ms":        "run_s, op_p50_ms",
		"rtree.cv_ms":           "run_s, op_p50_ms",
		"rtree.build_ms":        "run_s",
		"kmeans.fromcsr_ms":     "run_s",
		"kmeans.bestre_ms":      "run_s",
		"sampling.evaluate_ms":  "run_s",
		"sampling.required_ms":  "run_s",
		"experiment.render_ms":  "run_s",
	},
	new: func(cfg *config) bench { return &warmStore{cfg: cfg} },
}

// The workloads of results/section46.txt and results/section7.txt, in
// table order, and the §7 interval budget those tables use.
var (
	names46      = []string{"sjas", "odb-h.q2", "odb-h.q13", "odb-h.q18", "spec.gcc", "spec.mcf"}
	names7       = []string{"odb-c", "odb-h.q4", "odb-h.q13", "odb-h.q18", "spec.mcf", "spec.gzip"}
	budget7      = 10
	required7Rel = 0.02
)

// warmNames is every workload either table needs, each once.
func warmNames() []string {
	out := slices.Clone(names46)
	for _, n := range names7 {
		if !slices.Contains(out, n) {
			out = append(out, n)
		}
	}
	return out
}

// warmStore regenerates the §4.6 and §7 tables from a profile store on
// disk, which is what re-running `fuzzyphase results -profile-dir` does.
type warmStore struct {
	cfg               *config
	dir               string // the store the rounds read
	golden46, golden7 []byte
	cold46, cold7     []byte // renders computed cold in set-up
	coldRows          map[string][2]string
	results           map[string]*experiment.Result // last untraced round, for parity
	opID              int

	attempted, failed int
	problems          checkList
}

// setup collects the nine workloads into a fresh profile store and
// renders both tables cold; those renders are what every warm round must
// reproduce, at any seed.
func (w *warmStore) setup(ctx context.Context, rep int) error {
	if rep == 0 {
		var err error
		if w.golden46, err = readGolden(w.cfg, "section46.txt"); err != nil {
			return err
		}
		if w.golden7, err = readGolden(w.cfg, "section7.txt"); err != nil {
			return err
		}
	}
	dir, err := os.MkdirTemp(filepath.Join(w.cfg.workDir, "tmp"), "store-")
	if err != nil {
		return err
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
	w.dir = dir
	experiment.InvalidateAnalysisCache()
	if err := experiment.SetProfileDir(dir); err != nil {
		return err
	}
	opt := experiment.Options{Seed: w.cfg.seed, Parallelism: w.cfg.nproc}
	rows46, err := experiment.Section46(ctx, names46, opt)
	if err != nil {
		return err
	}
	rows7, err := experiment.Section7Sampling(ctx, names7, budget7, opt)
	if err != nil {
		return err
	}
	r46, r7 := render46(rows46), render7(rows7)
	if rep > 0 && (!bytes.Equal(r46, w.cold46) || !bytes.Equal(r7, w.cold7)) {
		w.problems.addf("warm-store: set-up %d rendered different cold tables than set-up 0", rep)
	}
	w.cold46, w.cold7 = r46, r7
	w.coldRows = map[string][2]string{}
	for _, r := range rows46 {
		w.coldRows[r.Name] = [2]string{fmt.Sprintf("%+v", r), w.coldRows[r.Name][1]}
	}
	for _, r := range rows7 {
		w.coldRows[r.Name] = [2]string{w.coldRows[r.Name][0], fmt.Sprintf("%+v", r)}
	}
	w.checkGolden("cold", r46, r7)
	return nil
}

func (w *warmStore) checkGolden(what string, r46, r7 []byte) bool {
	ok := true
	if w.golden46 != nil && !bytes.Equal(r46, w.golden46) {
		w.problems.addf("warm-store: %s §4.6 table differs from results/section46.txt: %s", what, firstDiff(r46, w.golden46))
		ok = false
	}
	if w.golden7 != nil && !bytes.Equal(r7, w.golden7) {
		w.problems.addf("warm-store: %s §7 table differs from results/section7.txt: %s", what, firstDiff(r7, w.golden7))
		ok = false
	}
	return ok
}

func render46(rows []experiment.TreeVsKMeans) []byte {
	var b bytes.Buffer
	experiment.RenderTreeVsKMeans(&b, rows)
	return b.Bytes()
}

func render7(rows []experiment.SamplingRow) []byte {
	var b bytes.Buffer
	experiment.RenderSampling(&b, rows)
	return b.Bytes()
}

func (w *warmStore) round(ctx context.Context, tr *tracer) (roundResult, error) {
	names := warmNames()
	// One caller, with the whole worker budget for the op it runs, so
	// every workload's time adds to the round's (with nproc callers the
	// round would last exactly as long as sjas alone).
	opt := experiment.Options{Seed: w.cfg.seed, Parallelism: w.cfg.nproc}
	var store *profstore.Store
	if tr != nil {
		// The traced pipeline reads the same entries through a store of
		// its own, so every read is a disk read.
		store = profstore.New()
		if err := store.SetDir(w.dir); err != nil {
			return roundResult{}, err
		}
	}
	if tr != nil && w.results == nil {
		// The last untraced round's results, still cached, for the
		// traced pipeline's parity check.
		w.results = map[string]*experiment.Result{}
		for _, name := range names {
			res, err := experiment.AnalyzeCtx(ctx, name, opt)
			if err != nil {
				return roundResult{}, err
			}
			w.results[name] = res
		}
	}
	experiment.InvalidateAnalysisCache() // also drops the store's memory tier
	before := snapshotCounters()
	rows46 := make([]experiment.TreeVsKMeans, len(names))
	rows7 := make([]experiment.SamplingRow, len(names))
	ok := make([]bool, len(names))
	// The traced ops keep their analyses until the round ends, as the memo
	// cache keeps the untraced ones, so both rounds run on a like heap.
	traced := make([]*analysis, len(names))
	firstOp := w.opID + 1
	w.opID += len(names)

	start := time.Now()
	lat, err := closedLoop(ctx, 1, len(names), func(ctx context.Context, i int) error {
		name := names[i]
		parity, err := true, error(nil)
		if tr == nil {
			err = w.regenerate(ctx, name, opt, &rows46[i], &rows7[i])
		} else {
			traced[i], parity, err = w.tracedRegenerate(ctx, tr, firstOp+i, store, name, opt, &rows46[i], &rows7[i])
		}
		if err != nil {
			return err
		}
		want := w.coldRows[name]
		ok[i] = parity && (!slices.Contains(names46, name) || fmt.Sprintf("%+v", rows46[i]) == want[0]) &&
			(!slices.Contains(names7, name) || fmt.Sprintf("%+v", rows7[i]) == want[1])
		return nil
	})
	if err != nil {
		return roundResult{}, err
	}
	renderSpan := tr.begin("experiment.render", 0, 0)
	r46 := render46(pick(rows46, names, names46))
	r7 := render7(pick(rows7, names, names7))
	tr.end(renderSpan)
	wall := time.Since(start)
	counts := countersSince(before, len(names))
	runtime.KeepAlive(traced)

	roundOK := bytes.Equal(r46, w.cold46) && bytes.Equal(r7, w.cold7)
	if !roundOK {
		w.problems.addf("warm-store: warm tables differ from the cold ones: §4.6 %s; §7 %s", firstDiff(r46, w.cold46), firstDiff(r7, w.cold7))
	}
	roundOK = w.checkGolden("warm", r46, r7) && roundOK
	if tr == nil && (counts.storeDisk != uint64(len(names)) || counts.storeMiss != 0) {
		w.problems.addf("warm-store: round read %d entries from disk and simulated %d, want %d and 0",
			counts.storeDisk, counts.storeMiss, len(names))
		roundOK = false
	}
	for i := range ok {
		w.attempted++
		if !ok[i] || !roundOK {
			w.failed++
		}
	}
	return roundResult{wall: wall, ops: lat, counts: counts}, nil
}

// regenerate is one untraced op: the workload's rows of both tables,
// through the same functions `fuzzyphase results` calls.
func (w *warmStore) regenerate(ctx context.Context, name string, opt experiment.Options, row46 *experiment.TreeVsKMeans, row7 *experiment.SamplingRow) error {
	if slices.Contains(names46, name) {
		rows, err := experiment.Section46(ctx, []string{name}, opt)
		if err != nil {
			return err
		}
		*row46 = rows[0]
	}
	if slices.Contains(names7, name) {
		rows, err := experiment.Section7Sampling(ctx, []string{name}, budget7, opt)
		if err != nil {
			return err
		}
		*row7 = rows[0]
	}
	return nil
}

// tracedRegenerate is one traced op: the traced pipeline reading the
// store, then the §4.6 and §7 row computations of experiment.Section46
// and experiment.Section7Sampling, each call in its own span. parity
// reports whether the traced CVResult equals AnalyzeCtx's.
func (w *warmStore) tracedRegenerate(ctx context.Context, tr *tracer, op int, store *profstore.Store, name string, opt experiment.Options, row46 *experiment.TreeVsKMeans, row7 *experiment.SamplingRow) (a *analysis, parity bool, err error) {
	root := tr.begin("op", 0, op)
	defer tr.end(root)
	a, err = tracedAnalyze(ctx, tr, root, op, name, opt, store)
	if err != nil {
		return nil, false, err
	}
	if ref := w.results[name]; ref != nil && sameValue(a.cv, ref.CV) {
		parity = true
	} else {
		w.problems.addf("warm-store: %s: traced CVResult differs from AnalyzeCtx's", name)
	}
	cpis := a.set.CPIs()
	if slices.Contains(names46, name) {
		type best struct {
			re float64
			k  int
		}
		km, err := timed(tr, "kmeans.bestre", root, op, func() (best, error) {
			re, k, err := a.km.BestRE(cpis, maxLeaves, opt.Seed)
			return best{re, k}, err
		})
		if err != nil {
			return nil, false, err
		}
		treeRE, _ := timed(tr, "rtree.build", root, op, func() (float64, error) {
			tree := a.mtx.Build(rtree.Options{MaxLeaves: maxLeaves, MinLeaf: 2, Parallelism: opt.Parallelism})
			return tree.InSampleRE(tree.Leaves()), nil
		})
		*row46 = experiment.TreeVsKMeans{Name: name, TreeRE: treeRE, TreeCV: a.cv.REOpt, KMeans: km.re, KMeansK: km.k}
		if km.re > 0 {
			row46.Improvement = (km.re - treeRE) / km.re
		}
	}
	if slices.Contains(names7, name) {
		evals, err := timed(tr, "sampling.evaluate", root, op, func() ([]sampling.Eval, error) {
			return sampling.Evaluate(cpis, a.km, budget7, opt.Seed)
		})
		if err != nil {
			return nil, false, err
		}
		needed, err := timed(tr, "sampling.required", root, op, func() (int, error) {
			return sampling.RequiredSamples(cpis, required7Rel)
		})
		if err != nil {
			return nil, false, err
		}
		q := quadrant.Classify(a.set.CPIVariance(), a.cv.REOpt)
		*row7 = experiment.SamplingRow{Name: name, Quadrant: q, Evals: evals, Recommend: quadrant.Recommend(q), RequiredFor2Pct: needed}
	}
	return a, parity, nil
}

// pick returns the rows of want, in want's order, out of rows indexed like
// names.
func pick[R any](rows []R, names, want []string) []R {
	out := make([]R, 0, len(want))
	for _, n := range want {
		out = append(out, rows[slices.Index(names, n)])
	}
	return out
}

func (w *warmStore) finish(context.Context) error { return nil }

func (w *warmStore) layers(_ context.Context, tr *tracer) (layerReport, error) {
	lt := aggregate(tr.snapshot())
	ops := lt.count["op"]
	m := map[string]float64{}
	comps := []string{"profstore.disk_get_ms", "profiler.collect_ms", "eipv.build_ms", "rtree.index_ms", "rtree.cv_ms",
		"kmeans.fromcsr_ms", "kmeans.bestre_ms", "rtree.build_ms", "sampling.evaluate_ms", "sampling.required_ms"}
	for _, name := range comps {
		m[name] = perOp(lt, name[:len(name)-3], ops)
	}
	if n := lt.count["experiment.render"]; n > 0 {
		m["experiment.render_ms"] = ms(lt.self["experiment.render"]) / float64(n)
	}
	return layerReport{metrics: m, components: comps}, nil
}

func (w *warmStore) tally() (int, int, []string) { return w.attempted, w.failed, w.problems.all() }

func (w *warmStore) close() {
	if w.dir != "" {
		experiment.SetProfileDir("")
		os.RemoveAll(w.dir)
	}
}
