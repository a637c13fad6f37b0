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
	"math/bits"
	"sort"

	"repro/internal/cpu"
	"repro/internal/profiler"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Vector is one EIPV: a sparse histogram of EIP sample counts over one
// interval, with the interval's CPI statistics. The histogram is a row of
// ranks into its Set's EIPTable: parallel slices, ranks strictly
// ascending (so their EIPs ascend too), counts positive.
type Vector struct {
	// Index is the interval's ordinal position in its stream (whole-system
	// or per-thread).
	Index int
	// Thread is the owning thread for thread-separated vectors, or -1.
	Thread int
	// Ranks are the interval's distinct sampled EIPs as positions in the
	// set's EIPTable, strictly ascending.
	Ranks []int32
	// Counts are the samples per EIP, parallel to Ranks.
	Counts []int32
	// CPI is the average instantaneous CPI of the interval's samples.
	CPI float64
	// Work, FE, EXE, Other decompose the interval's CPI (cycle components
	// per instruction over the interval's counter deltas).
	Work, FE, EXE, Other float64
}

// Set is a collection of EIPVs from one profile.
type Set struct {
	Workload string
	// EIPTable is the profile's distinct sampled EIPs, ascending (the
	// table EIPIndex returns; do not modify). Every vector's Ranks index
	// it.
	EIPTable []uint64
	Vectors  []Vector
}

// Row returns vector i's histogram with its ranks mapped through the
// EIPTable: the row form of an uploaded profile (profilefmt.Row), EIPs
// strictly ascending with parallel positive counts, in fresh slices.
func (s *Set) Row(i int) (eips []uint64, counts []int64) {
	v := &s.Vectors[i]
	eips = make([]uint64, len(v.Ranks))
	counts = make([]int64, len(v.Ranks))
	for j, r := range v.Ranks {
		eips[j] = s.EIPTable[r]
		counts[j] = int64(v.Counts[j])
	}
	return eips, counts
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
	out := &Set{Workload: s.Workload, EIPTable: s.EIPTable}
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

// instCPI is sample i's instantaneous CPI: the cycle delta since the
// previous sample over the instructions retired in between (§3.2), 0 when
// none retired.
func instCPI(samples []profiler.Sample, i int) float64 {
	insts, cycles := samples[i].Counters.Insts, samples[i].Counters.Cycles
	if i > 0 {
		insts -= samples[i-1].Counters.Insts
		cycles -= samples[i-1].Counters.Cycles
	}
	if insts == 0 {
		return 0
	}
	return float64(cycles) / float64(insts)
}

// Build aggregates a profile into whole-system EIPVs with the given
// interval length in instructions. Samples are assigned to intervals by
// their cumulative retired-instruction count.
//
// Accumulation runs over the profile's dense EIP index: per-sample work is
// a slice increment by rank, and one accumulator's backing arrays are
// reused across all intervals.
func Build(p *profiler.Profile, intervalInsts uint64) *Set {
	s := &Set{Workload: p.Workload}
	if len(p.Samples) == 0 {
		return s
	}
	eips, ranks := p.EIPIndex()
	s.EIPTable = eips
	acc := newIntervalAcc(-1, p.Samples, len(eips))
	cur := -1
	for i := range p.Samples {
		idx := int((p.Samples[i].Counters.Insts - 1) / intervalInsts)
		if idx != cur {
			if acc.armed {
				s.Vectors = append(s.Vectors, acc.finish())
			}
			acc.reset(idx, i)
			cur = idx
		}
		acc.add(ranks[i], i)
	}
	if acc.armed {
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
	eips, ranks := p.EIPIndex()
	s.EIPTable = eips
	accs := map[int]*intervalAcc{} // one reusable accumulator per thread
	idx := map[int]int{}
	for i := range p.Samples {
		th := p.Samples[i].Thread
		acc := accs[th]
		if acc == nil {
			acc = newIntervalAcc(th, p.Samples, len(eips))
			accs[th] = acc
		}
		if !acc.armed {
			acc.reset(idx[th], i)
		}
		acc.add(ranks[i], i)
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

// intervalAcc accumulates one vector stream's intervals: a dense count
// slice indexed by the profile's EIP rank, with a presence bitmap over
// ranks so finish emits the row in rank order by scanning words, not by
// sorting. One accumulator is reused for every interval of its stream
// (reset re-arms it after finish).
type intervalAcc struct {
	index   int
	thread  int
	armed   bool
	src     []profiler.Sample // the profile's samples
	counts  []int32           // samples per rank in the current interval
	present []uint64          // bit r set iff counts[r] > 0
	n       int               // ranks present
	cpiSum  float64
	samples int // samples in the current interval
	first   int // index of the interval's first sample
	last    int // index of the interval's last sample
}

func newIntervalAcc(thread int, src []profiler.Sample, ranks int) *intervalAcc {
	return &intervalAcc{
		thread:  thread,
		src:     src,
		counts:  make([]int32, ranks),
		present: make([]uint64, (ranks+63)/64),
	}
}

// reset re-arms the accumulator for a new interval starting at sample
// first. counts and present are already clear: finish resets them.
func (a *intervalAcc) reset(index, first int) {
	a.index = index
	a.armed = true
	a.cpiSum = 0
	a.samples = 0
	a.first = first
}

// add counts sample i, whose EIP has the given rank.
func (a *intervalAcc) add(rank int32, i int) {
	if a.counts[rank] == 0 {
		a.present[rank>>6] |= 1 << (rank & 63)
		a.n++
	}
	a.counts[rank]++
	a.cpiSum += instCPI(a.src, i)
	a.samples++
	a.last = i
}

// finish emits the interval as a row. The set bits of present, read word
// by word, are the interval's ranks in ascending order.
func (a *intervalAcc) finish() Vector {
	v := Vector{
		Index:  a.index,
		Thread: a.thread,
		Ranks:  make([]int32, 0, a.n),
		Counts: make([]int32, 0, a.n),
		CPI:    a.cpiSum / float64(a.samples),
	}
	for w, word := range a.present {
		if word == 0 {
			continue
		}
		for ; word != 0; word &= word - 1 {
			r := int32(w<<6 | bits.TrailingZeros64(word))
			v.Ranks = append(v.Ranks, r)
			v.Counts = append(v.Counts, a.counts[r])
			a.counts[r] = 0
		}
		a.present[w] = 0
	}
	a.n = 0
	a.armed = false
	var before cpu.Counters // the counters at the interval's start
	if a.first > 0 {
		before = a.src[a.first-1].Counters
	}
	d := a.src[a.last].Counters.Sub(before)
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
	// The profile's EIP index ranks EIPs by address (a stable Y axis);
	// per-sample ranks come with it.
	eips, ranks := p.EIPIndex()
	out := make([]SpreadPoint, len(p.Samples))
	for i := range p.Samples {
		out[i] = SpreadPoint{
			Seconds: workload.Seconds(p.Samples[i].Counters.Cycles),
			EIPRank: int(ranks[i]),
			CPI:     instCPI(p.Samples, i),
		}
	}
	return out, len(eips)
}
