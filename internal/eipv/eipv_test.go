package eipv

import (
	"math"
	"testing"

	"repro/internal/cpu"
	"repro/internal/profiler"
	"repro/internal/stats"
)

// synth builds a synthetic profile: `per` samples per interval over
// `intervals` intervals, alternating between two EIP/CPI regimes by
// interval parity. Thread alternates every sample between 0 and 1.
func synth(intervals, per int, period uint64) *profiler.Profile {
	p := &profiler.Profile{Workload: "synth", Period: period}
	var insts, cycles uint64
	for iv := 0; iv < intervals; iv++ {
		cpi := 1.0
		eip := uint64(0x1000)
		if iv%2 == 1 {
			cpi = 3.0
			eip = 0x2000
		}
		for s := 0; s < per; s++ {
			insts += period
			cycles += uint64(float64(period) * cpi)
			p.Samples = append(p.Samples, profiler.Sample{
				EIP:    eip + uint64(s%4)*64,
				Thread: s % 2,
				Counters: cpu.Counters{
					Insts:  insts,
					Cycles: cycles,
					// Attribute everything to WORK for breakdown checks.
					WorkCycles: cycles,
				},
			})
		}
	}
	return p
}

func TestBuildIntervalStructure(t *testing.T) {
	const per, period = 100, 1000
	p := synth(10, per, period)
	s := Build(p, uint64(per*period))
	if len(s.Vectors) != 10 {
		t.Fatalf("%d vectors, want 10", len(s.Vectors))
	}
	for i, v := range s.Vectors {
		if v.Samples() != per {
			t.Fatalf("vector %d has %d samples", i, v.Samples())
		}
		want := 1.0
		if i%2 == 1 {
			want = 3.0
		}
		if math.Abs(v.CPI-want) > 1e-9 {
			t.Fatalf("vector %d CPI = %v, want %v", i, v.CPI, want)
		}
		if len(v.Counts) != 4 {
			t.Fatalf("vector %d has %d unique EIPs, want 4", i, len(v.Counts))
		}
		if v.Thread != -1 {
			t.Fatal("whole-system vector carries a thread id")
		}
	}
}

func TestCPIVarianceAndMean(t *testing.T) {
	p := synth(10, 100, 1000)
	s := Build(p, 100_000)
	if mean := stats.Mean(s.CPIs()); math.Abs(mean-2.0) > 1e-9 {
		t.Fatalf("mean = %v", mean)
	}
	if math.Abs(s.CPIVariance()-1.0) > 1e-9 {
		t.Fatalf("variance = %v, want 1.0", s.CPIVariance())
	}
	// Every row is strictly ascending ranks into the EIP table with
	// parallel positive counts. Across rows the set samples 8 distinct
	// EIPs.
	distinct := map[uint64]bool{}
	for i, v := range s.Vectors {
		if len(v.Ranks) != len(v.Counts) {
			t.Fatalf("vector %d: %d ranks, %d counts", i, len(v.Ranks), len(v.Counts))
		}
		for j, r := range v.Ranks {
			if j > 0 && v.Ranks[j-1] >= r {
				t.Fatalf("vector %d: ranks not strictly ascending at %d: %v", i, j, v.Ranks)
			}
			if v.Counts[j] < 1 {
				t.Fatalf("vector %d: count %d for rank %d", i, v.Counts[j], r)
			}
			distinct[s.EIPTable[r]] = true
		}
	}
	if len(distinct) != 8 || len(s.EIPTable) != 8 {
		t.Fatalf("unique EIPs = %d (table %d), want 8", len(distinct), len(s.EIPTable))
	}
}

func TestBreakdownPerInterval(t *testing.T) {
	p := synth(4, 100, 1000)
	s := Build(p, 100_000)
	for i, v := range s.Vectors {
		sum := v.Work + v.FE + v.EXE + v.Other
		if math.Abs(sum-v.CPI) > 0.05 {
			t.Fatalf("vector %d breakdown %v != CPI %v", i, sum, v.CPI)
		}
		if v.FE != 0 || v.EXE != 0 {
			t.Fatal("synthetic profile charged non-work components")
		}
	}
}

func TestSkipWarmup(t *testing.T) {
	p := synth(10, 100, 1000)
	s := Build(p, 100_000)
	trimmed := s.SkipWarmup(3)
	if len(trimmed.Vectors) != 7 {
		t.Fatalf("%d vectors after skip, want 7", len(trimmed.Vectors))
	}
	if trimmed.Vectors[0].Index != 3 {
		t.Fatalf("first vector index %d, want 3", trimmed.Vectors[0].Index)
	}
}

func TestBuildPerThread(t *testing.T) {
	const per, period = 100, 1000
	p := synth(10, per, period)
	s := BuildPerThread(p, uint64(per*period))
	// Two threads, each with half the samples: 10*100/2 = 500 samples per
	// thread / 100 per vector = 5 vectors per thread.
	byThread := map[int]int{}
	for _, v := range s.Vectors {
		byThread[v.Thread]++
		if v.Samples() != per {
			t.Fatalf("per-thread vector with %d samples", v.Samples())
		}
	}
	if byThread[0] != 5 || byThread[1] != 5 {
		t.Fatalf("per-thread vector counts: %v", byThread)
	}
	// Each thread's samples alternate regimes every half-vector, so
	// per-thread CPI mixes both; just confirm CPI is within range.
	for _, v := range s.Vectors {
		if v.CPI < 1.0-1e-9 || v.CPI > 3.0+1e-9 {
			t.Fatalf("per-thread CPI %v out of range", v.CPI)
		}
	}
}

func TestSpread(t *testing.T) {
	p := synth(4, 100, 1000)
	pts, unique := Spread(p)
	if len(pts) != len(p.Samples) {
		t.Fatalf("%d points", len(pts))
	}
	if unique != 8 {
		t.Fatalf("unique = %d", unique)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Seconds < pts[i-1].Seconds {
			t.Fatal("spread time not monotone")
		}
	}
	for _, pt := range pts {
		if pt.EIPRank < 0 || pt.EIPRank >= unique {
			t.Fatalf("rank %d out of range", pt.EIPRank)
		}
		if pt.CPI < 0.5 || pt.CPI > 3.5 {
			t.Fatalf("instantaneous CPI %v out of range", pt.CPI)
		}
	}
}

func TestEmptyProfile(t *testing.T) {
	p := &profiler.Profile{Period: 1000}
	if s := Build(p, 100_000); len(s.Vectors) != 0 {
		t.Fatal("vectors from empty profile")
	}
	if s := BuildPerThread(p, 100_000); len(s.Vectors) != 0 {
		t.Fatal("per-thread vectors from empty profile")
	}
}

func TestInstantaneousCPIIsDelta(t *testing.T) {
	// Two samples with a CPI jump: instantaneous CPI must reflect each
	// sample's own delta, not the cumulative average.
	p := &profiler.Profile{Period: 100}
	p.Samples = []profiler.Sample{
		{EIP: 1, Counters: cpu.Counters{Insts: 100, Cycles: 100}},
		{EIP: 1, Counters: cpu.Counters{Insts: 200, Cycles: 600}}, // inst CPI 5
	}
	s := Build(p, 200)
	if len(s.Vectors) != 1 {
		t.Fatalf("%d vectors", len(s.Vectors))
	}
	if math.Abs(s.Vectors[0].CPI-3.0) > 1e-9 { // mean of 1 and 5
		t.Fatalf("interval CPI %v, want 3.0", s.Vectors[0].CPI)
	}
}
