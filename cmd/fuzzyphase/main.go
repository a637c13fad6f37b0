// Command fuzzyphase reproduces the analyses of "The Fuzzy Correlation
// between Code and Performance Predictability" (MICRO 2004).
//
// Usage:
//
//	fuzzyphase list
//	fuzzyphase run <workload> [flags]
//	fuzzyphase explain <workload> [flags]
//	fuzzyphase figure <2-13> [flags]
//	fuzzyphase table <1|2> [flags]
//	fuzzyphase compare-kmeans <workload>... [flags]
//	fuzzyphase compare-bbv <workload>... [flags]
//	fuzzyphase save-profile <workload> <file.fzp> [flags]
//	fuzzyphase analyze-profile <file.fzp> [flags]
//	fuzzyphase sampling [budget] [flags]
//	fuzzyphase results [dir] [flags]
//	fuzzyphase sweep-interval | sweep-machine [flags]
//	fuzzyphase export <workload> <file> [flags]
//	fuzzyphase import <file> [flags]
//	fuzzyphase serve [flags]
//
// Flags (after the subcommand's positional arguments). The analysis
// options are registered from the canonical optcodec field table — the
// same table that defines serve's query parameters, so the two surfaces
// cannot drift:
//
//	-seed N        random seed (default 1)
//	-intervals N   EIPV intervals to simulate (default 320)
//	-warmup N      leading intervals to discard (default 10; negative = none)
//	-machine NAME  itanium2 | pentium4 | xeon (default itanium2)
//	-threads       build thread-separated EIPVs
//	-interval-insts N  EIPV interval length in instructions
//	-period N      profiler sampling period override
//	-max-leaves N  regression-tree leaf cap (default 50)
//	-folds N       cross-validation folds (default 10)
//	-parallel N    worker goroutines (0 = one per CPU; output identical at any N)
//	-profile-dir D persistent profile store (default $FUZZYPHASE_PROFILE_DIR);
//	               collected profiles are content-addressed and reused across
//	               runs — output is byte-identical with or without the store
//	-cachestats    print Analyze memoization stats to stderr on exit
//	-cpuprofile F  write a CPU profile to F
//	-memprofile F  write a heap profile to F on exit
//	-pprof ADDR    serve net/http/pprof on ADDR (e.g. localhost:6060)
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	fuzzyphase "repro"
	"repro/internal/cpu"
	"repro/internal/experiment"
	"repro/internal/optcodec"
	"repro/internal/profiler"
	"repro/internal/serve"
)

func usage() {
	fmt.Fprintln(os.Stderr, `usage: fuzzyphase <command> [args] [flags]

commands:
  list                         list all runnable workloads
  run <workload>               analyze one workload end-to-end
  explain <workload>           show which code regions predict CPI
  figure <2-13>                regenerate a paper figure
  table <1|2>                  regenerate a paper table
  compare-kmeans <workload>..  regression tree vs k-means (paper 4.6)
  compare-bbv <workload>..     sampled EIPVs vs full BBVs (paper 3.3, deferred)
  save-profile <workload> <f>  collect a profile and archive it (FZPR, .fzp)
  analyze-profile <f>          re-analyze an archived profile offline
  export <workload> <f>        export a workload's EIPV profile (profilefmt)
  import <f>                   analyze or convert an external profile
  sampling [budget]            evaluate sampling techniques (paper 7)
  results [dir]                regenerate every archived results/ artifact
  sweep-interval               EIPV interval-size sensitivity (paper 7.1)
  sweep-machine                machine-model sensitivity (paper 7.1)
  serve                        run the analysis engine as an HTTP service

flags (after positional args): -seed -intervals -warmup -machine -threads
  -interval-insts -period -max-leaves -folds -parallel -profile-dir
  -cachestats -cpuprofile -memprofile -pprof
serve flags: -addr -cache-entries -timeout -grace -heavy-limit -heavy-queue
  -retry-after
export/import flags: -format json|binary, -from auto|eipv|pprof|perf,
  -convert OUT (write OUT instead of analyzing), -cpi X (CPI for sources
  without a cycles/instructions pair)

  -parallel N runs the analysis engine on N worker goroutines (0, the
  default, uses one per CPU). Output is bit-for-bit identical at any N;
  only the wall-clock changes.

  -profile-dir D (default $FUZZYPHASE_PROFILE_DIR) keeps collected
  profiles in a persistent content-addressed store: reruns read the
  simulation's output from disk instead of re-simulating, with
  byte-identical results.`)
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	args := os.Args[2:]

	// Split positional arguments from flags.
	var pos []string
	for len(args) > 0 && args[0] != "" && args[0][0] != '-' {
		pos = append(pos, args[0])
		args = args[1:]
	}
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	// The analysis options come from the canonical optcodec table. opt is
	// pre-seeded with the CLI's historical defaults; Bind's flags write
	// straight into it during Parse.
	opt := fuzzyphase.Options{Seed: 1, Machine: cpu.Itanium2()}
	optcodec.Bind(fs, &opt)
	cachestats := fs.Bool("cachestats", false, "print Analyze cache stats to stderr on exit")
	profileDir := fs.String("profile-dir", os.Getenv("FUZZYPHASE_PROFILE_DIR"),
		"persistent profile store directory (default $FUZZYPHASE_PROFILE_DIR; empty = memory-only)")
	csv := fs.Bool("csv", false, "figure: emit the raw CSV data of a curve or spread figure instead of text")
	format := fs.String("format", "json", "export/import: profile encoding, json|binary")
	from := fs.String("from", "auto", "import: source format, auto|eipv|pprof|perf")
	convert := fs.String("convert", "", "import: write the converted profile here instead of analyzing")
	defaultCPI := fs.Float64("cpi", 1.0, "import: CPI for rows of sources without a cycles/instructions pair")
	addr := fs.String("addr", ":8080", "serve: listen address")
	cacheEntries := fs.Int("cache-entries", 64, "serve: Analyze LRU cache cap in entries (0 = unbounded)")
	reqTimeout := fs.Duration("timeout", 0, "serve: per-request deadline (0 = none)")
	grace := fs.Duration("grace", 10*time.Second, "serve: shutdown drain window")
	heavyLimit := fs.Int("heavy-limit", 0,
		"serve: concurrent simulation-backed requests admitted (0 = 2x NumCPU, min 8; negative = unlimited)")
	heavyQueue := fs.Int("heavy-queue", 0,
		"serve: simulation-backed requests queued beyond -heavy-limit before shedding with 429 (0 = 4x limit; negative = none)")
	retryAfter := fs.Duration("retry-after", time.Second,
		"serve: Retry-After advice carried on 429 shed responses")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	startProfiles(*cpuprofile, *memprofile)
	defer stopProfiles()
	if *pprofAddr != "" {
		go func() {
			fmt.Fprintln(os.Stderr, "# pprof:", http.ListenAndServe(*pprofAddr, nil))
		}()
	}

	if *profileDir != "" {
		if err := fuzzyphase.SetProfileDir(*profileDir); err != nil {
			fatal(err)
		}
		experiment.SetProfileLogf(func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "# "+format+"\n", args...)
		})
	}
	if *cachestats {
		defer func() {
			fmt.Fprintln(os.Stderr, "#", fuzzyphase.AnalysisCacheStats())
			fmt.Fprintln(os.Stderr, "#", fuzzyphase.ProfileStoreStats())
			fmt.Fprintf(os.Stderr, "# mem refs dropped (BlockEvent truncation): %d\n",
				profiler.MemRefsDroppedTotal())
		}()
	}

	switch cmd {
	case "list":
		if len(pos) != 0 {
			usage()
		}
		for _, name := range fuzzyphase.Workloads() {
			fmt.Println(name)
		}

	case "run":
		if len(pos) != 1 {
			usage()
		}
		render(summaryGen(pos[0]), opt)

	case "figure":
		if err := experiment.WriteFigure(context.Background(), os.Stdout, atoi(pos), opt, *csv); err != nil {
			fatal(err)
		}

	case "table":
		id := atoi(pos)
		if id == 2 {
			if err := runTable2(opt); err != nil {
				fatal(err)
			}
			break
		}
		err := fuzzyphase.Table(id, opt, os.Stdout, func(name string) {
			fmt.Fprintf(os.Stderr, "analyzed %s\n", name)
		})
		if err != nil {
			fatal(err)
		}

	case "explain":
		if len(pos) != 1 {
			usage()
		}
		render(explainGen(pos[0]), opt)

	case "compare-kmeans":
		render(section46Gen(orDefault(pos, section46Workloads)), opt)

	case "save-profile":
		if len(pos) != 2 {
			usage()
		}
		col, err := experiment.Collect(context.Background(), pos[0], opt)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(pos[1], profiler.EncodeResult(col), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d samples of %s to %s\n", len(col.Profile.Samples), pos[0], pos[1])

	case "analyze-profile":
		if len(pos) != 1 {
			usage()
		}
		data, err := os.ReadFile(pos[0])
		if err != nil {
			fatal(err)
		}
		col, err := profiler.DecodeResult(data)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", pos[0], err))
		}
		res, err := experiment.AnalyzeCollection(context.Background(), col.Profile.Workload, col, opt)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s (offline): %d EIPVs, CPI variance %.4f, RE_kopt %.3f at k=%d -> %s\n",
			res.Name, res.Intervals, res.CPIVariance, res.CV.REOpt, res.CV.KOpt, res.Quadrant)

	case "export":
		if len(pos) != 2 {
			usage()
		}
		if err := runExport(pos[0], pos[1], *format, opt); err != nil {
			fatal(err)
		}

	case "import":
		if len(pos) != 1 {
			usage()
		}
		if err := runImport(pos[0], *from, *convert, *format, *defaultCPI, opt); err != nil {
			fatal(err)
		}

	case "compare-bbv":
		render(bbvGen(orDefault(pos, compareBBVWorkloads)), opt)

	case "sampling":
		budget := section7Budget
		if len(pos) > 0 {
			budget = atoi(pos)
		}
		render(samplingGen(section7Workloads, budget), opt)

	case "results":
		dir := "results"
		if len(pos) == 1 {
			dir = pos[0]
		} else if len(pos) > 1 {
			usage()
		}
		if err := runResults(dir, opt); err != nil {
			fatal(err)
		}

	case "sweep-interval":
		if len(pos) != 0 {
			usage()
		}
		render(intervalSweepGen(section71IntervalWorkloads), opt)

	case "serve":
		if len(pos) != 0 {
			usage()
		}
		err := runServe(serve.Config{
			Addr:           *addr,
			CacheEntries:   *cacheEntries,
			RequestTimeout: *reqTimeout,
			ShutdownGrace:  *grace,
			ProfileDir:     *profileDir,
			HeavyLimit:     *heavyLimit,
			HeavyQueue:     *heavyQueue,
			RetryAfter:     *retryAfter,
		}, opt)
		if err != nil {
			fatal(err)
		}

	case "sweep-machine":
		if len(pos) != 0 {
			usage()
		}
		render(machineSweepGen(section71MachineWorkloads), opt)

	default:
		usage()
	}
}

// render runs a generator to stdout, exiting on error.
func render(gen generator, opt fuzzyphase.Options) {
	if err := gen(opt, os.Stdout); err != nil {
		fatal(err)
	}
}

// orDefault returns the workloads named on the command line, or def when
// none are.
func orDefault(pos, def []string) []string {
	if len(pos) == 0 {
		return def
	}
	return pos
}

// runTable2 regenerates the full 50-workload classification with
// per-workload progress on stderr and a wall-clock/speedup summary. The
// progress callback fires in table order even though the analyses run in
// parallel.
func runTable2(opt fuzzyphase.Options) error {
	total := len(experiment.Table2Workloads())
	workers := experiment.Workers(opt.Parallelism)
	fmt.Fprintf(os.Stderr, "# table 2: %d workloads on %d workers\n", total, workers)
	start := time.Now()
	count := 0
	var analysis time.Duration
	rows, err := experiment.Table2(context.Background(), opt, func(name string, row experiment.Table2Row) {
		count++
		analysis += row.Elapsed
		fmt.Fprintf(os.Stderr, "[%3d/%d %8s] %-14s var=%.4f RE=%.3f -> %s\n",
			count, total, time.Since(start).Round(time.Millisecond),
			name, row.CPIVar, row.REOpt, row.Quadrant)
	})
	if err != nil {
		return err
	}
	experiment.RenderTable2(os.Stdout, rows)
	wall := time.Since(start)
	// Cumulative per-workload time over wall-clock: on an idle multicore
	// machine this is the realized speedup over a serial run; when workers
	// outnumber cores it reads as average concurrency instead.
	concurrency := 1.0
	if wall > 0 {
		concurrency = float64(analysis) / float64(wall)
	}
	fmt.Fprintf(os.Stderr, "# %d workloads in %s wall (%s cumulative, %.1fx concurrency on %d workers)\n",
		total, wall.Round(time.Millisecond), analysis.Round(time.Millisecond), concurrency, workers)
	return nil
}

func atoi(pos []string) int {
	if len(pos) != 1 {
		usage()
	}
	n, err := strconv.Atoi(pos[0])
	if err != nil {
		fatal(fmt.Errorf("expected a number, got %q", pos[0]))
	}
	return n
}

// memProfilePath is remembered by startProfiles so stopProfiles can write
// the heap snapshot at exit.
var memProfilePath string

// startProfiles begins CPU profiling and records the heap-profile
// destination. stopProfiles is idempotent and is invoked from both main's
// defer and fatal, because fatal's os.Exit skips defers.
func startProfiles(cpuPath, memPath string) {
	memProfilePath = memPath
	if cpuPath == "" {
		return
	}
	f, err := os.Create(cpuPath)
	if err != nil {
		fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		fatal(err)
	}
}

// stopProfilesOnce makes stopProfiles safe to call from main's defer and
// from fatal concurrently (e.g. a goroutine calling fatal while main
// unwinds): a plain bool here was a data race, and a second StopCPUProfile
// or heap write must never happen.
var stopProfilesOnce sync.Once

func stopProfiles() {
	stopProfilesOnce.Do(stopProfilesImpl)
}

func stopProfilesImpl() {
	pprof.StopCPUProfile()
	if memProfilePath != "" {
		f, err := os.Create(memProfilePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fuzzyphase:", err)
			return
		}
		runtime.GC() // settle allocations so the heap profile is current
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "fuzzyphase:", err)
		}
		f.Close()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fuzzyphase:", err)
	stopProfiles()
	os.Exit(1)
}
