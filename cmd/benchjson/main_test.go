package main

import (
	"strings"
	"testing"
)

// TestParseRecordsPackagePerResult: a run over two packages prints a pkg:
// header before each package's results, and every result keeps its own
// package rather than the last one seen.
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
