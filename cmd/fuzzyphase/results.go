package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	fuzzyphase "repro"
	"repro/internal/experiment"
)

// The results/ archive is generated — and regression-checked — from this
// table: each artifact is one CLI analysis rendered in-process (sharing
// the Analyze memoization cache across artifacts, so the ~20 files cost
// far fewer than 20 simulations) with an optional head/tail line trim.
// All artifacts use the default options: seed 1, 320 intervals, itanium2.
//
// `fuzzyphase results <dir>` regenerates the archive; `make
// verify-results` regenerates it twice (serial and -parallel 4) into temp
// directories and diffs byte-for-byte against results/ — the golden test
// that every paper artifact is reproducible and parallelism-independent.

// generator renders one analysis to w. The CLI subcommands and the
// results/ artifacts share them.
type generator func(opt fuzzyphase.Options, w io.Writer) error

// artifact is one archived results/ file.
type artifact struct {
	name string // file name under the output directory
	gen  generator
	// first/last keep only the leading/trailing N lines of the generated
	// text (0 = keep all). Exactly one may be set.
	first, last int
}

func figureGen(id int) generator {
	return func(opt fuzzyphase.Options, w io.Writer) error {
		return fuzzyphase.Figure(id, opt, w)
	}
}

func summaryGen(name string) generator {
	return func(opt fuzzyphase.Options, w io.Writer) error {
		res, err := fuzzyphase.Analyze(name, opt)
		if err != nil {
			return err
		}
		_, err = io.WriteString(w, fuzzyphase.Summary(res))
		return err
	}
}

// artifacts lists every archived file with its generation recipe.
var artifacts = []artifact{
	{name: "figure2.txt", gen: figureGen(2)},
	{name: "figure2-tail.txt", gen: figureGen(2), last: 2},
	{name: "figure3.txt", gen: figureGen(3)},
	{name: "figure4.txt", gen: figureGen(4), first: 1},
	{name: "figure5.txt", gen: figureGen(5), first: 1},
	{name: "figure6.txt", gen: figureGen(6), last: 1},
	{name: "figure7.txt", gen: figureGen(7), last: 1},
	{name: "figure8.txt", gen: figureGen(8), last: 1},
	{name: "figure9.txt", gen: figureGen(9)},
	{name: "figure10.txt", gen: figureGen(10), last: 1},
	{name: "figure11.txt", gen: figureGen(11)},
	{name: "figure12.txt", gen: figureGen(12), first: 1},
	{name: "table2.txt", gen: func(opt fuzzyphase.Options, w io.Writer) error {
		return fuzzyphase.Table(2, opt, w, nil)
	}},
	{name: "odbc.txt", gen: summaryGen("odb-c")},
	{name: "sjas.txt", gen: summaryGen("sjas")},
	{name: "explain-q13.txt", gen: explainGen("odb-h.q13"), first: 8},
	{name: "section33-bbv.txt", gen: bbvGen(section33BBVWorkloads)},
	{name: "section46.txt", gen: section46Gen(section46Workloads)},
	{name: "section7.txt", gen: samplingGen(section7Workloads, section7Budget)},
	{name: "section71-intervals.txt", gen: intervalSweepGen(section71IntervalWorkloads)},
	{name: "section71-machines.txt", gen: machineSweepGen(section71MachineWorkloads)},
}

// Default workload lists. Each is the default of a CLI subcommand and the
// list its results/ artifact is generated from.
var (
	section46Workloads         = []string{"sjas", "odb-h.q2", "odb-h.q13", "odb-h.q18", "spec.gcc", "spec.mcf"}
	section7Workloads          = []string{"odb-c", "odb-h.q4", "odb-h.q13", "odb-h.q18", "spec.mcf", "spec.gzip"}
	section71IntervalWorkloads = []string{"odb-h.q13", "odb-h.q18", "spec.mcf"}
	section71MachineWorkloads  = []string{"odb-c", "odb-h.q13", "spec.mcf"}
	// compare-bbv's default; the archived §3.3 artifact adds odb-c.
	compareBBVWorkloads   = []string{"odb-h.q13", "odb-h.q18", "spec.mcf"}
	section33BBVWorkloads = append(slices.Clip(compareBBVWorkloads), "odb-c")
)

// section7Budget is the §7 sampling budget: samples per technique.
const section7Budget = 10

func explainGen(name string) generator {
	return func(opt fuzzyphase.Options, w io.Writer) error {
		res, err := fuzzyphase.Analyze(name, opt)
		if err != nil {
			return err
		}
		experiment.RenderExplanation(w, res, experiment.Explain(res))
		return nil
	}
}

func bbvGen(names []string) generator {
	return func(opt fuzzyphase.Options, w io.Writer) error {
		rows, err := experiment.CompareBBV(context.Background(), names, opt)
		if err != nil {
			return err
		}
		experiment.RenderBBVComparison(w, rows)
		return nil
	}
}

func section46Gen(names []string) generator {
	return func(opt fuzzyphase.Options, w io.Writer) error {
		rows, err := experiment.Section46(context.Background(), names, opt)
		if err != nil {
			return err
		}
		experiment.RenderTreeVsKMeans(w, rows)
		return nil
	}
}

func samplingGen(names []string, budget int) generator {
	return func(opt fuzzyphase.Options, w io.Writer) error {
		rows, err := experiment.Section7Sampling(context.Background(), names, budget, opt)
		if err != nil {
			return err
		}
		experiment.RenderSampling(w, rows)
		return nil
	}
}

func intervalSweepGen(names []string) generator {
	return func(opt fuzzyphase.Options, w io.Writer) error {
		rows, err := experiment.Section71Intervals(context.Background(), names, opt)
		if err != nil {
			return err
		}
		experiment.RenderSweep(w, "EIPV interval-size sweep (paper 7.1)", rows)
		return nil
	}
}

func machineSweepGen(names []string) generator {
	return func(opt fuzzyphase.Options, w io.Writer) error {
		rows, err := experiment.Section71Machines(context.Background(), names, opt)
		if err != nil {
			return err
		}
		experiment.RenderSweep(w, "machine-model sweep (paper 7.1)", rows)
		return nil
	}
}

// trimLines keeps the first/last n newline-terminated lines of text.
func trimLines(text string, first, last int) string {
	if first == 0 && last == 0 {
		return text
	}
	lines := strings.SplitAfter(text, "\n")
	// A trailing newline leaves an empty final element; drop it so the
	// counts refer to real lines.
	if len(lines) > 0 && lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	switch {
	case first > 0 && first < len(lines):
		lines = lines[:first]
	case last > 0 && last < len(lines):
		lines = lines[len(lines)-last:]
	}
	return strings.Join(lines, "")
}

// runResults regenerates every archived artifact into dir.
func runResults(dir string, opt fuzzyphase.Options) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	start := time.Now()
	for i, a := range artifacts {
		var buf bytes.Buffer
		if err := a.gen(opt, &buf); err != nil {
			return fmt.Errorf("results: %s: %w", a.name, err)
		}
		out := trimLines(buf.String(), a.first, a.last)
		if err := os.WriteFile(filepath.Join(dir, a.name), []byte(out), 0o644); err != nil {
			return fmt.Errorf("results: %s: %w", a.name, err)
		}
		fmt.Fprintf(os.Stderr, "[%2d/%d %8s] %s\n",
			i+1, len(artifacts), time.Since(start).Round(time.Millisecond), a.name)
	}
	return nil
}
