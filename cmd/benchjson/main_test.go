package main

import (
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestParseRecordsPackagePerResult: a run over two packages prints a pkg:
// header before each package's results, and every result keeps its own
// package rather than the last one seen. The machine fields come from the
// process and the given cpuinfo and commit.
func TestParseRecordsPackagePerResult(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: repro/internal/kmeans
cpu: Test CPU
BenchmarkKMeansCluster/dense-2   3   6306211 ns/op   641626 B/op   18 allocs/op
PASS
ok  	repro/internal/kmeans	1.2s
goos: linux
goarch: amd64
pkg: repro/internal/sampling
cpu: Test CPU
BenchmarkSamplingEvaluate-2   3   1500 ns/op
PASS
`
	rep, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || rep.CPU != "Test CPU" {
		t.Errorf("context = %q/%q/%q", rep.Goos, rep.Goarch, rep.CPU)
	}
	rep.machine(strings.NewReader("processor\t: 0\nmodel name\t: Test CPU\ncpu MHz\t\t: 2399.998\nprocessor\t: 1\ncpu MHz\t\t: 1200.000\n"), "abc123", true)
	if rep.GoVersion != runtime.Version() || rep.GOMAXPROCS != runtime.GOMAXPROCS(0) || rep.NProc != runtime.NumCPU() {
		t.Errorf("toolchain fields = %q, GOMAXPROCS %d, nproc %d", rep.GoVersion, rep.GOMAXPROCS, rep.NProc)
	}
	if rep.CPUMHz != "2399.998" || rep.GitSHA != "abc123" || !rep.GitModified {
		t.Errorf("cpu_mhz %q, git_sha %q, git_modified %v: want the first cpu MHz line and the given commit state",
			rep.CPUMHz, rep.GitSHA, rep.GitModified)
	}
	want := []result{
		{Pkg: "repro/internal/kmeans", Name: "BenchmarkKMeansCluster/dense-2", Iterations: 3,
			NsPerOp: 6306211, BytesPerOp: 641626, AllocsPerOp: 18},
		{Pkg: "repro/internal/sampling", Name: "BenchmarkSamplingEvaluate-2", Iterations: 3, NsPerOp: 1500},
	}
	if len(rep.Benchmarks) != len(want) {
		t.Fatalf("%d results, want %d: %+v", len(rep.Benchmarks), len(want), rep.Benchmarks)
	}
	for i := range want {
		if rep.Benchmarks[i] != want[i] {
			t.Errorf("result %d = %+v, want %+v", i, rep.Benchmarks[i], want[i])
		}
	}
}

// TestParseKeepsRepeatedResults: a -count run prints one line per run of
// the same benchmark, and each becomes its own entry, in order, so the
// record keeps the spread.
func TestParseKeepsRepeatedResults(t *testing.T) {
	in := `pkg: repro/internal/profiler
BenchmarkCollectCold/odb-c-2   3   723000000 ns/op
BenchmarkCollectCold/odb-c-2   3   1312000000 ns/op
BenchmarkCollectCold/odb-c-2   3   731000000 ns/op
PASS
`
	rep, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	var got []float64
	for _, r := range rep.Benchmarks {
		if r.Pkg != "repro/internal/profiler" || r.Name != "BenchmarkCollectCold/odb-c-2" || r.Iterations != 3 {
			t.Errorf("entry %+v, want the profiler package's CollectCold/odb-c row", r)
		}
		got = append(got, r.NsPerOp)
	}
	if want := []float64{723000000, 1312000000, 731000000}; !slices.Equal(got, want) {
		t.Errorf("ns/op of the entries = %v, want %v", got, want)
	}
}
