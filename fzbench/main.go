// Command fzbench is fuzzyphase's end-to-end benchmark. It runs one
// workload per invocation in a fresh process and prints, as the last line
// of its standard output, one JSON object:
//
//	{"correct": bool, "attempted": n, "failed": n, "metrics": {name: {"value", "unit"}}}
//
// With --trace 0 the metrics are the end-to-end ones (set-up, run time,
// op latency, ok ratio, peak RSS), measured untraced. With --trace 1 the
// same untraced rounds run first, then the same rounds again through a
// traced copy of the pipeline (or, for a workload that replays, the
// untraced rounds' ops again in process), and the metrics are the
// per-layer ones.
// The line before the result carries the machine fingerprint and how the
// figures were taken. See README.md for the workloads.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	fzbench/run.sh --workload cold-suite --seed 1 --seconds 15 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/experiment"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	workDir  string // scratch space inside the checkout
	nproc    int    // caller goroutines and connections
}

// spec describes one workload.
type spec struct {
	name string
	op   string // what one op is
	why  string
	// opsPerRound is the fixed op count of one round. roundBudget turns
	// --seconds into a fixed number of rounds: it is about one round's wall
	// time on the reference machine, rounded so that at the benchmark's
	// run length op_p50_ms and op_tail_ms fall inside a group of like ops
	// rather than between two (see README.md).
	opsPerRound int
	roundBudget time.Duration
	setupReps   int
	// replays marks a workload whose rounds cannot be traced from outside
	// (serve-upload's server): --trace 1 runs no traced rounds for it, and
	// its layers method replays the untraced rounds' ops in process,
	// untraced and traced, and reports the tracing overhead itself.
	replays bool
	// layerMap names, for each per-layer metric this workload moves, the
	// end-to-end metrics it should move.
	layerMap map[string]string
	new      func(cfg *config) bench
}

// bench is one workload's implementation.
type bench interface {
	// setup makes one fresh set-up; the harness calls it setupReps times
	// and keeps the last.
	setup(ctx context.Context, rep int) error
	// round runs one round of opsPerRound ops: the real pipeline when tr
	// is nil, the traced copy otherwise.
	round(ctx context.Context, tr *tracer) (roundResult, error)
	// finish runs the checks that need every round.
	finish(ctx context.Context) error
	// layers computes the per-layer metrics after the traced rounds; it
	// runs before finish.
	layers(ctx context.Context, tr *tracer) (layerReport, error)
	// tally returns the ops attempted and failed so far, and the failed
	// checks that are not tied to one op.
	tally() (attempted, failed int, problems []string)
	close()
}

// roundResult is what one round measured.
type roundResult struct {
	wall   time.Duration
	ops    []time.Duration // latency of every op of the workload's op class
	counts counters        // program-side counts over the timed part
}

// counters are program-side counts taken around a round's timed part.
type counters struct {
	cache      experiment.CacheStats
	storeMem   uint64
	storeDisk  uint64
	storeMiss  uint64
	allocBytes uint64
	attempted  int // everything the round issued, ops or not
}

// runData is everything the untraced and traced rounds measured.
type runData struct {
	setups        []time.Duration // wall time of each set-up
	setupsCPU     []time.Duration // process CPU time of each set-up
	untraced      []roundResult
	traced        []roundResult
	first         counters
	untracedOpsMs []float64
	roundRSS      []float64 // peak RSS of each untraced round, MiB
}

// layerReport is a workload's per-layer metrics, and which of them are
// parts of one op: those plus the residual add up to the untraced op time.
type layerReport struct {
	metrics    map[string]float64
	components []string
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics and their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"ok_ratio", "ratio"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"max_rss_mb", "MiB"},
}

// perLayer lists every per-layer metric and its unit. A traced run of any
// workload reports all of them; a layer the workload does not exercise
// reads 0.
var perLayer = []struct{ name, unit string }{
	{"profiler.collect_ms", "ms"},
	{"profiler.minsts_per_s", "Minst/s"},
	{"profstore.disk_get_ms", "ms"},
	{"profstore.mem_hits", "count"},
	{"profstore.disk_hits", "count"},
	{"profstore.misses", "count"},
	{"eipv.build_ms", "ms"},
	{"rtree.index_ms", "ms"},
	{"rtree.cv_ms", "ms"},
	{"rtree.build_ms", "ms"},
	{"kmeans.fromcsr_ms", "ms"},
	{"kmeans.bestre_ms", "ms"},
	{"sampling.evaluate_ms", "ms"},
	{"sampling.required_ms", "ms"},
	{"experiment.render_ms", "ms"},
	{"profilefmt.decode_json_ms", "ms"},
	{"profilefmt.decode_fzev_ms", "ms"},
	{"profilefmt.hash_ms", "ms"},
	{"profilefmt.index_ms", "ms"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.hit_tail_ms", "ms"},
	{"serve.overhead_ms", "ms"},
	{"serve.hit_overhead_ms", "ms"},
	{"serve.admission_queued", "count"},
	{"serve.shed", "count"},
	{"experiment.analyze_hits", "count"},
	{"experiment.analyze_misses", "count"},
	{"experiment.analyze_shared", "count"},
	{"experiment.analyze_hit_ratio", "ratio"},
	{"runtime.alloc_mb_per_op", "MiB"},
	{"trace.untraced_op_ms", "ms"},
	{"residual_ms", "ms"},
	{"residual_share", "ratio"},
	{"trace.overhead_s", "s"},
	{"trace.overhead_share", "ratio"},
}

var specs = []spec{coldSuiteSpec, warmStoreSpec, serveUploadSpec}

func main() {
	var cfg config
	var seed int64
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: cold-suite, warm-store or serve-upload")
	flag.Int64Var(&seed, "seed", 1, "input seed; 1 also checks outputs against the golden results/ files")
	flag.IntVar(&cfg.seconds, "seconds", 15, "how long the measured rounds should take on the reference machine")
	trace := flag.Int("trace", 0, "1 runs the traced rounds and reports per-layer metrics")
	flag.StringVar(&cfg.workDir, "work-dir", ".bench_build", "scratch directory for stores and span files")
	flag.Parse()
	cfg.seed = uint64(seed)
	cfg.trace = *trace == 1
	cfg.nproc = runtime.NumCPU()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	res, err := run(ctx, &cfg)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fzbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fzbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one workload end to end and assembles the result line.
func run(ctx context.Context, cfg *config) (*result, error) {
	var sp *spec
	for i := range specs {
		if specs[i].name == cfg.workload {
			sp = &specs[i]
		}
	}
	if sp == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds < 1 {
		return nil, errors.New("--seconds must be at least 1")
	}
	if err := os.MkdirAll(filepath.Join(cfg.workDir, "tmp"), 0o755); err != nil {
		return nil, err
	}
	b := sp.new(cfg)
	defer b.close()

	var rd runData
	for rep := 0; rep < sp.setupReps; rep++ {
		runtime.GC() // every set-up starts from a collected heap
		start, cpu0 := time.Now(), processCPU()
		if err := b.setup(ctx, rep); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", sp.name, err)
		}
		rd.setups = append(rd.setups, time.Since(start))
		rd.setupsCPU = append(rd.setupsCPU, processCPU()-cpu0)
	}

	// Set-up's garbage and freed pages must not count towards the rounds'
	// peak RSS.
	debug.FreeOSMemory()
	rss := startRSSSampler()
	defer rss.close()
	steal0 := readCPUStat()
	rounds := roundsFor(sp, cfg.seconds)
	for r := 0; r < rounds; r++ {
		runtime.GC() // every round starts from a collected heap
		rss.takePeak()
		rr, err := b.round(ctx, nil)
		rd.roundRSS = append(rd.roundRSS, rss.takePeak())
		if err != nil {
			return nil, fmt.Errorf("%s: round %d: %w", sp.name, r, err)
		}
		if r == 0 {
			rd.first = rr.counts
		}
		rd.untraced = append(rd.untraced, rr)
		rd.untracedOpsMs = append(rd.untracedOpsMs, msAll(rr.ops)...)
		progress("%s round %d/%d: %d ops in %s", sp.name, r+1, rounds, len(rr.ops), rr.wall.Round(time.Millisecond))
	}
	stealShare := readCPUStat().stealShareSince(steal0)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	if cfg.trace && !sp.replays {
		for r := 0; r < rounds; r++ {
			runtime.GC()
			rr, err := b.round(ctx, tr)
			if err != nil {
				return nil, fmt.Errorf("%s: traced round %d: %w", sp.name, r, err)
			}
			rd.traced = append(rd.traced, rr)
			progress("%s traced round %d/%d: %s", sp.name, r+1, rounds, rr.wall.Round(time.Millisecond))
		}
	}
	// Per-layer figures first: serve-upload replays its rounds in process,
	// and does so before the checks below fill its caches.
	var lr layerReport
	if cfg.trace {
		var err error
		if lr, err = b.layers(ctx, tr); err != nil {
			return nil, fmt.Errorf("%s: layers: %w", sp.name, err)
		}
	}
	if err := b.finish(ctx); err != nil {
		return nil, fmt.Errorf("%s: checks: %w", sp.name, err)
	}

	res := &result{Metrics: map[string]metric{}}
	detail := map[string]any{
		"workload":          sp.name,
		"seed":              cfg.seed,
		"op":                sp.op,
		"why":               sp.why,
		"rounds":            rounds,
		"ops_per_round":     sp.opsPerRound,
		"setup_reps":        sp.setupReps,
		"setup_wall_s":      secondsAll(rd.setups),
		"setup_cpu_s":       secondsAll(rd.setupsCPU),
		"round_s":           roundWalls(rd.untraced),
		"round_peak_rss_mb": rd.roundRSS,
		"cpu_steal_share":   stealShare,
		"op_samples":        len(rd.untracedOpsMs),
		"layer_to_end2end":  sp.layerMap,
		"fingerprint":       fingerprint(),
		"op_tail_rule":      fmt.Sprintf("highest percentile with at least %d ops beyond it", tailBeyond),
	}
	tailMs, pct, ok := tail(rd.untracedOpsMs)
	if !ok {
		return nil, fmt.Errorf("%s: %d op samples, too few for a tail percentile", sp.name, len(rd.untracedOpsMs))
	}
	detail["op_tail_percentile"] = pct
	if cfg.trace {
		addTraceFigures(&rd, &lr)
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{Value: lr.metrics[m.name], Unit: m.unit}
		}
		if len(rd.traced) > 0 {
			detail["traced_round_s"] = roundWalls(rd.traced)
		}
		detail["residual_components"] = lr.components
		path := filepath.Join(cfg.workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", sp.name, cfg.seed))
		if err := writeSpans(path, tr.snapshot()); err != nil {
			return nil, err
		}
		detail["spans"] = path
	} else {
		values := map[string]float64{
			"setup_s":    median(secondsAll(rd.setupsCPU)),
			"run_s":      median(roundWalls(rd.untraced)),
			"op_p50_ms":  median(rd.untracedOpsMs),
			"op_tail_ms": tailMs,
			"max_rss_mb": slices.Max(rd.roundRSS),
		}
		attempted, failed, _ := b.tally()
		if attempted > 0 {
			values["ok_ratio"] = float64(attempted-failed) / float64(attempted)
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{Value: values[m.name], Unit: m.unit}
		}
	}

	attempted, failed, problems := b.tally()
	res.Attempted, res.Failed = attempted, failed
	res.Correct = attempted > 0 && failed == 0 && len(problems) == 0
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "fzbench: check failed:", p)
	}
	detail["problems"] = problems
	line, err := json.Marshal(map[string]any{"detail": detail})
	if err != nil {
		return nil, err
	}
	fmt.Println(string(line))
	return res, nil
}

// roundsFor turns --seconds into a fixed round count, so one run always
// measures the same number of ops, with enough op samples for a tail
// percentile.
func roundsFor(sp *spec, seconds int) int {
	r := int(math.Round(float64(seconds) * float64(time.Second) / float64(sp.roundBudget)))
	need := (tailBeyond + sp.opsPerRound) / sp.opsPerRound // ceil((tailBeyond+1)/opsPerRound)
	return max(r, need)
}

// addTraceFigures adds the metrics every workload derives the same way:
// the untraced op time, the residual the layers leave of it, the tracing
// overhead (unless the workload replays, and its layers measured it) and
// the first untraced round's program-side counts.
func addTraceFigures(rd *runData, lr *layerReport) {
	m := lr.metrics
	opMs := mean(rd.untracedOpsMs)
	var parts float64
	for _, c := range lr.components {
		parts += m[c]
	}
	m["trace.untraced_op_ms"] = opMs
	m["residual_ms"] = opMs - parts
	if opMs > 0 {
		m["residual_share"] = (opMs - parts) / opMs
	}
	if len(rd.traced) > 0 {
		untraced, traced := median(roundWalls(rd.untraced)), median(roundWalls(rd.traced))
		m["trace.overhead_s"] = traced - untraced
		if untraced > 0 {
			m["trace.overhead_share"] = (traced - untraced) / untraced
		}
	}
	c := rd.first
	m["experiment.analyze_hits"] = float64(c.cache.Hits)
	m["experiment.analyze_misses"] = float64(c.cache.Misses)
	m["experiment.analyze_shared"] = float64(c.cache.Shared)
	if total := c.cache.Hits + c.cache.Misses + c.cache.Shared; total > 0 {
		m["experiment.analyze_hit_ratio"] = float64(c.cache.Hits) / float64(total)
	}
	m["profstore.mem_hits"] = float64(c.storeMem)
	m["profstore.disk_hits"] = float64(c.storeDisk)
	m["profstore.misses"] = float64(c.storeMiss)
	if c.attempted > 0 {
		m["runtime.alloc_mb_per_op"] = float64(c.allocBytes) / (1 << 20) / float64(c.attempted)
	}
}

// countersSince returns the counts accumulated since before (a
// snapshotCounters value) over a round that issued attempted requests.
func countersSince(before counters, attempted int) counters {
	c := snapshotCounters().minus(before)
	c.attempted = attempted
	return c
}

func snapshotCounters() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st := experiment.ProfileStoreStats()
	return counters{
		cache:      experiment.AnalysisCacheStats(),
		storeMem:   st.MemHits,
		storeDisk:  st.DiskHits,
		storeMiss:  st.Misses,
		allocBytes: ms.TotalAlloc,
	}
}

// minus returns the counts accumulated since before.
func (c counters) minus(before counters) counters {
	c.cache.Hits -= before.cache.Hits
	c.cache.Misses -= before.cache.Misses
	c.cache.Shared -= before.cache.Shared
	c.storeMem -= before.storeMem
	c.storeDisk -= before.storeDisk
	c.storeMiss -= before.storeMiss
	c.allocBytes -= before.allocBytes
	return c
}

func roundWalls(rs []roundResult) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.wall.Seconds()
	}
	return out
}

func secondsAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// perOp divides a layer's summed self time over ops, in milliseconds.
func perOp(lt layerTimes, name string, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return ms(lt.self[name]) / float64(ops)
}

// sameValue compares two values by their printed form, which for floats
// is exact (shortest round-trip) and, unlike ==, treats NaN as equal to
// itself.
func sameValue(a, b any) bool { return fmt.Sprintf("%+v", a) == fmt.Sprintf("%+v", b) }

func progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "# "+format+"\n", args...)
}

// checkList collects failed checks that are not tied to a single op; ops
// running concurrently may add to it.
type checkList struct {
	mu   sync.Mutex
	list []string
}

func (c *checkList) addf(format string, args ...any) {
	c.mu.Lock()
	c.list = append(c.list, fmt.Sprintf(format, args...))
	c.mu.Unlock()
}

func (c *checkList) all() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.list...)
}

// readGolden returns results/<name> when seed 1 is checked against the
// archive, nil otherwise.
func readGolden(cfg *config, name string) ([]byte, error) {
	if cfg.seed != 1 {
		return nil, nil
	}
	b, err := os.ReadFile(filepath.Join("results", name))
	if err != nil {
		return nil, fmt.Errorf("golden output: %w", err)
	}
	return b, nil
}

// firstDiff describes where two renders first differ.
func firstDiff(got, want []byte) string {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}
