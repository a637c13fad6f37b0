// Command benchjson converts `go test -bench` text output (read from
// stdin) into machine-readable JSON on stdout, so benchmark runs can be
// archived and diffed (see `make bench-kernels` and BENCH_kernels.json).
//
// Standard benchmark lines look like
//
//	BenchmarkRTreeBuild/csr-8   100  1234567 ns/op  2048 B/op  17 allocs/op
//
// Everything that is not a benchmark result line (goos/goarch/cpu headers,
// PASS, ok) is captured into the context block or ignored. A -count run
// prints a result line per run, and each becomes its own entry. A run over
// several packages prints a pkg: header before each package's results, so
// every result records the package it came from. The context block also
// carries the machine fields fzbench records: Go version, GOMAXPROCS, CPU
// count, CPU clock and git commit.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

type result struct {
	Pkg         string  `json:"pkg,omitempty"`
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	MBPerSec    float64 `json:"mb_per_sec,omitempty"`
}

type report struct {
	Goos       string `json:"goos,omitempty"`
	Goarch     string `json:"goarch,omitempty"`
	CPU        string `json:"cpu,omitempty"`
	GoVersion  string `json:"go_version,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
	NProc      int    `json:"nproc,omitempty"`
	CPUMHz     string `json:"cpu_mhz,omitempty"`
	GitSHA     string `json:"git_sha,omitempty"`
	// GitModified is set when a Go source or go.mod differed from
	// GitSHA's: the numbers then measure uncommitted code.
	GitModified bool     `json:"git_modified,omitempty"`
	Benchmarks  []result `json:"benchmarks"`
}

func main() {
	rep, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	var cpuinfo io.Reader // stays nil off Linux: no clock to report
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		cpuinfo = f
	}
	sha, modified := gitState()
	rep.machine(cpuinfo, sha, modified)
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parse reads `go test -bench` output into a report.
func parse(in io.Reader) (report, error) {
	rep := report{Benchmarks: []result{}}
	pkg := "" // package of the results that follow
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseLine(line); ok {
				r.Pkg = pkg
				rep.Benchmarks = append(rep.Benchmarks, r)
			}
		}
	}
	return rep, sc.Err()
}

// machine fills the fields that identify the host and the build. The Go
// version, GOMAXPROCS and CPU count are this process's own: it is built
// by the toolchain that ran the benchmarks and reads their output in the
// same environment. The CPU clock is the first "cpu MHz" line of cpuinfo
// (which may be nil).
func (r *report) machine(cpuinfo io.Reader, sha string, modified bool) {
	r.GoVersion = runtime.Version()
	r.GOMAXPROCS = runtime.GOMAXPROCS(0)
	r.NProc = runtime.NumCPU()
	r.GitSHA, r.GitModified = sha, modified
	if cpuinfo == nil {
		return
	}
	sc := bufio.NewScanner(cpuinfo)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "cpu MHz" {
			r.CPUMHz = strings.TrimSpace(v)
			return
		}
	}
}

// gitState returns the commit checked out in the current directory and
// whether any Go source or go.mod differs from it or is untracked; it
// returns "unknown" outside a git checkout.
func gitState() (sha string, modified bool) {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	st, err := exec.Command("git", "status", "--porcelain", "--", "*.go", "go.mod").Output()
	return strings.TrimSpace(string(out)), err == nil && len(st) > 0
}

// parseLine decodes one benchmark result line: a name, an iteration
// count, then (value, unit) pairs.
func parseLine(line string) (result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	r := result{Name: fields[0], Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		val := fields[i]
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp, _ = strconv.ParseFloat(val, 64)
		case "B/op":
			r.BytesPerOp, _ = strconv.ParseInt(val, 10, 64)
		case "allocs/op":
			r.AllocsPerOp, _ = strconv.ParseInt(val, 10, 64)
		case "MB/s":
			r.MBPerSec, _ = strconv.ParseFloat(val, 64)
		}
	}
	return r, true
}
