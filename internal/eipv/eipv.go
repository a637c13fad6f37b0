// Package eipv builds EIP vectors from sampled profiles (§3.2): the
// execution is divided into fixed-length instruction intervals, and each
// interval is represented by the histogram of EIPs sampled within it plus
// the interval's average instantaneous CPI.
//
// The package also produces the per-interval CPI breakdown series behind
// the paper's Figures 4/5/12 and the EIP/CPI spread series behind Figures
// 3/9/11, and implements the §5.2 thread-separated variant.
package eipv

import (
	"slices"
	"sort"

	"repro/internal/cpu"
	"repro/internal/profiler"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Vector is one EIPV: a sparse histogram of EIP sample counts over one
// interval, with the interval's CPI statistics. The histogram has the row
// form of an uploaded profile (profilefmt.Row): parallel slices, EIPs
// strictly ascending, counts positive.
type Vector struct {
	// Index is the interval's ordinal position in its stream (whole-system
	// or per-thread).
	Index int
	// Thread is the owning thread for thread-separated vectors, or -1.
	Thread int
	// EIPs are the interval's distinct sampled EIPs, strictly ascending.
	EIPs []uint64
	// Counts are the samples per EIP, parallel to EIPs.
	Counts []int64
	// CPI is the average instantaneous CPI of the interval's samples.
	CPI float64
	// Work, FE, EXE, Other decompose the interval's CPI (cycle components
	// per instruction over the interval's counter deltas).
	Work, FE, EXE, Other float64
}

// Samples returns the number of samples aggregated into the vector.
func (v *Vector) Samples() int {
	n := 0
	for _, c := range v.Counts {
		n += int(c)
	}
	return n
}

// Set is a collection of EIPVs from one profile.
type Set struct {
	Workload string
	Vectors  []Vector
}

// CPIs returns the per-interval CPI series.
func (s *Set) CPIs() []float64 {
	out := make([]float64, len(s.Vectors))
	for i := range s.Vectors {
		out[i] = s.Vectors[i].CPI
	}
	return out
}

// CPIVariance returns the population variance of interval CPI — the paper's
// X-axis in the quadrant classification.
func (s *Set) CPIVariance() float64 { return stats.Var(s.CPIs()) }

// SkipWarmup returns a Set without the first n vectors of each thread
// stream (the paper analyzes steady-state windows).
func (s *Set) SkipWarmup(n int) *Set {
	out := &Set{Workload: s.Workload}
	skipped := map[int]int{}
	for i := range s.Vectors {
		th := s.Vectors[i].Thread
		if skipped[th] < n {
			skipped[th]++
			continue
		}
		out.Vectors = append(out.Vectors, s.Vectors[i])
	}
	return out
}

// instantaneous computes per-sample instantaneous CPI: the counter delta
// between consecutive samples (§3.2: timestamp difference divided by
// instructions retired in the sample period).
func instantaneous(samples []profiler.Sample) []float64 {
	out := make([]float64, len(samples))
	var prev cpu.Counters
	for i := range samples {
		d := samples[i].Counters.Sub(prev)
		out[i] = d.CPI()
		prev = samples[i].Counters
	}
	return out
}

// Build aggregates a profile into whole-system EIPVs with the given
// interval length in instructions. Samples are assigned to intervals by
// their cumulative retired-instruction count.
//
// Accumulation runs over the profile's dense EIP index: per-sample work is
// a slice increment by rank instead of a map insert, and one accumulator's
// backing array is reused across all intervals with a touched-list reset.
func Build(p *profiler.Profile, intervalInsts uint64) *Set {
	s := &Set{Workload: p.Workload}
	if len(p.Samples) == 0 {
		return s
	}
	inst := instantaneous(p.Samples)
	eips, ranks := p.EIPIndex()
	acc := newIntervalAcc(-1, eips)
	cur := -1
	for i := range p.Samples {
		idx := int((p.Samples[i].Counters.Insts - 1) / intervalInsts)
		if idx != cur {
			if acc.armed {
				s.Vectors = append(s.Vectors, acc.finish())
			}
			acc.reset(idx, prevCounters(p, i))
			cur = idx
		}
		acc.add(ranks[i], &p.Samples[i], inst[i])
	}
	if acc.armed && acc.samples > 0 {
		s.Vectors = append(s.Vectors, acc.finish())
	}
	return s
}

// BuildPerThread aggregates a profile into thread-separated EIPVs: the
// samples are first partitioned by thread, and each thread's sample stream
// is cut into vectors of the same number of samples as a whole-system
// interval would contain (§5.2).
func BuildPerThread(p *profiler.Profile, intervalInsts uint64) *Set {
	s := &Set{Workload: p.Workload}
	if len(p.Samples) == 0 {
		return s
	}
	perInterval := int(intervalInsts / p.Period)
	if perInterval < 1 {
		perInterval = 1
	}
	inst := instantaneous(p.Samples)
	eips, ranks := p.EIPIndex()
	accs := map[int]*intervalAcc{} // one reusable accumulator per thread
	idx := map[int]int{}
	for i := range p.Samples {
		th := p.Samples[i].Thread
		acc := accs[th]
		if acc == nil {
			acc = newIntervalAcc(th, eips)
			accs[th] = acc
		}
		if !acc.armed {
			acc.reset(idx[th], prevCounters(p, i))
		}
		acc.add(ranks[i], &p.Samples[i], inst[i])
		if acc.samples >= perInterval {
			s.Vectors = append(s.Vectors, acc.finish())
			idx[th]++
		}
	}
	// Trailing partial accumulators (incomplete intervals) are never
	// finished, which drops them.
	sort.SliceStable(s.Vectors, func(i, j int) bool {
		if s.Vectors[i].Thread != s.Vectors[j].Thread {
			return s.Vectors[i].Thread < s.Vectors[j].Thread
		}
		return s.Vectors[i].Index < s.Vectors[j].Index
	})
	return s
}

func prevCounters(p *profiler.Profile, i int) cpu.Counters {
	if i == 0 {
		return cpu.Counters{}
	}
	return p.Samples[i-1].Counters
}

// intervalAcc accumulates one vector stream's intervals: a dense count
// slice indexed by the profile's EIP rank, with a touched-list so reset
// cost tracks the EIPs actually sampled. One accumulator is reused for
// every interval of its stream (reset re-arms it after finish).
type intervalAcc struct {
	index   int
	thread  int
	armed   bool
	eips    []uint64 // rank -> EIP, shared from the profile index
	counts  []int32  // samples per rank in the current interval
	touched []int32  // ranks with nonzero counts
	cpiSum  float64
	samples int
	first   cpu.Counters
	last    cpu.Counters
}

func newIntervalAcc(thread int, eips []uint64) *intervalAcc {
	return &intervalAcc{thread: thread, eips: eips, counts: make([]int32, len(eips))}
}

// reset re-arms the accumulator for a new interval. counts and touched are
// already clear: finish sparse-resets them.
func (a *intervalAcc) reset(index int, first cpu.Counters) {
	a.index = index
	a.armed = true
	a.cpiSum = 0
	a.samples = 0
	a.first = first
}

func (a *intervalAcc) add(rank int32, s *profiler.Sample, instCPI float64) {
	if a.counts[rank] == 0 {
		a.touched = append(a.touched, rank)
	}
	a.counts[rank]++
	a.cpiSum += instCPI
	a.samples++
	a.last = s.Counters
}

// finish emits the interval as a row. Ranks index the profile's
// ascending EIP table, so sorting the touched ranks orders the row's
// EIPs.
func (a *intervalAcc) finish() Vector {
	slices.Sort(a.touched)
	v := Vector{
		Index:  a.index,
		Thread: a.thread,
		EIPs:   make([]uint64, len(a.touched)),
		Counts: make([]int64, len(a.touched)),
		CPI:    a.cpiSum / float64(a.samples),
	}
	for i, r := range a.touched {
		v.EIPs[i] = a.eips[r]
		v.Counts[i] = int64(a.counts[r])
		a.counts[r] = 0
	}
	a.touched = a.touched[:0]
	a.armed = false
	d := a.last.Sub(a.first)
	v.Work, v.FE, v.EXE, v.Other = d.Breakdown()
	return v
}

// SpreadPoint is one sample of the paper's EIP/CPI spread plots.
type SpreadPoint struct {
	Seconds float64
	EIPRank int     // rank of the EIP among unique EIPs (plot Y position)
	CPI     float64 // instantaneous CPI
}

// Spread converts a profile to the Figure 3/9/11 time-series: per sample,
// the modeled time, the sampled EIP (as a dense rank) and the
// instantaneous CPI.
func Spread(p *profiler.Profile) ([]SpreadPoint, int) {
	inst := instantaneous(p.Samples)
	// The profile's memoized index already ranks EIPs by address (a stable
	// Y axis); per-sample ranks come with it.
	eips, ranks := p.EIPIndex()
	out := make([]SpreadPoint, len(p.Samples))
	for i := range p.Samples {
		out[i] = SpreadPoint{
			Seconds: workload.Seconds(p.Samples[i].Counters.Cycles),
			EIPRank: int(ranks[i]),
			CPI:     inst[i],
		}
	}
	return out, len(eips)
}
