package eipv

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cpu"
	"repro/internal/profiler"
	"repro/internal/xrand"
)

// randomProfile builds a profile with irregular CPI and EIP behaviour but
// consistent counter bookkeeping.
func randomProfile(rng *xrand.Rand) *profiler.Profile {
	period := uint64(100 * (1 + rng.Intn(10)))
	p := &profiler.Profile{Workload: "prop", Period: period}
	var insts, cycles uint64
	n := 50 + rng.Intn(800)
	for i := 0; i < n; i++ {
		insts += period
		cycles += uint64(float64(period) * (0.4 + rng.Float64()*5))
		p.Samples = append(p.Samples, profiler.Sample{
			EIP:    0x400000 + uint64(rng.Intn(200))*64,
			Thread: rng.Intn(4),
			Counters: cpu.Counters{
				Insts:      insts,
				Cycles:     cycles,
				WorkCycles: cycles,
			},
		})
	}
	return p
}

func TestBuildConservesSamples(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		p := randomProfile(rng)
		interval := uint64(1000 * (1 + rng.Intn(50)))
		s := Build(p, interval)
		total := 0
		for i := range s.Vectors {
			total += s.Vectors[i].Samples()
		}
		return total == len(p.Samples)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildPerThreadNeverMixesThreads(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		p := randomProfile(rng)
		s := BuildPerThread(p, 10*p.Period)
		// Reconstruct: each vector's samples must all come from its
		// thread — verified by counting per-thread totals.
		perThread := map[int]int{}
		for i := range p.Samples {
			perThread[p.Samples[i].Thread]++
		}
		got := map[int]int{}
		for i := range s.Vectors {
			got[s.Vectors[i].Thread] += s.Vectors[i].Samples()
		}
		for th, n := range got {
			if n > perThread[th] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestIntervalCPIWithinInstantaneousRange(t *testing.T) {
	// An interval's CPI is an average of its samples' instantaneous CPIs,
	// so it must lie within the global instantaneous min/max.
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		p := randomProfile(rng)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range p.Samples {
			v := instCPI(p.Samples, i)
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		s := Build(p, 5*p.Period)
		for i := range s.Vectors {
			c := s.Vectors[i].CPI
			if c < lo-1e-9 || c > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSkipWarmupNeverNegative(t *testing.T) {
	rng := xrand.New(5)
	p := randomProfile(rng)
	s := Build(p, 10*p.Period)
	if got := s.SkipWarmup(10 * len(s.Vectors)); len(got.Vectors) != 0 {
		t.Fatalf("over-skip left %d vectors", len(got.Vectors))
	}
	if got := s.SkipWarmup(0); len(got.Vectors) != len(s.Vectors) {
		t.Fatal("zero skip changed the set")
	}
}
