// Command benchjson converts `go test -bench` text output (read from
// stdin) into machine-readable JSON on stdout, so benchmark runs can be
// archived and diffed (see `make bench-kernels` and BENCH_kernels.json).
//
// Standard benchmark lines look like
//
//	BenchmarkRTreeBuild/csr-8   100  1234567 ns/op  2048 B/op  17 allocs/op
//
// Everything that is not a benchmark result line (goos/goarch/cpu headers,
// PASS, ok) is captured into the context block or ignored. A run over
// several packages prints a pkg: header before each package's results, so
// every result records the package it came from.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
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
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []result `json:"benchmarks"`
}

func main() {
	rep, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
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
