package eipv

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/cpu"
	"repro/internal/profiler"
	"repro/internal/xrand"
)

// The builders' oracle: a map-based reference that cuts the same
// intervals straight from the samples, with no rank index, no bitmap and
// the full counter subtraction for every instantaneous CPI. Build and
// BuildPerThread must match it exactly once their rank rows are mapped
// through the set's EIP table.

// refVector is one reference interval: its histogram by EIP plus the
// fields a Vector carries.
type refVector struct {
	index, thread        int
	hist                 map[uint64]int64
	cpi                  float64
	work, fe, exe, other float64
}

// refInterval accumulates the member samples (indices into p.Samples, in
// stream order) into one reference vector.
func refInterval(p *profiler.Profile, index, thread int, members []int) refVector {
	v := refVector{index: index, thread: thread, hist: map[uint64]int64{}}
	sum := 0.0
	for _, i := range members {
		var prev cpu.Counters
		if i > 0 {
			prev = p.Samples[i-1].Counters
		}
		v.hist[p.Samples[i].EIP]++
		sum += p.Samples[i].Counters.Sub(prev).CPI()
	}
	v.cpi = sum / float64(len(members))
	var before cpu.Counters
	if members[0] > 0 {
		before = p.Samples[members[0]-1].Counters
	}
	d := p.Samples[members[len(members)-1]].Counters.Sub(before)
	v.work, v.fe, v.exe, v.other = d.Breakdown()
	return v
}

// refBuild is the reference whole-system builder.
func refBuild(p *profiler.Profile, intervalInsts uint64) []refVector {
	var out []refVector
	var members []int
	cur := -1
	for i := range p.Samples {
		idx := int((p.Samples[i].Counters.Insts - 1) / intervalInsts)
		if idx != cur && len(members) > 0 {
			out = append(out, refInterval(p, cur, -1, members))
			members = members[:0]
		}
		cur = idx
		members = append(members, i)
	}
	if len(members) > 0 {
		out = append(out, refInterval(p, cur, -1, members))
	}
	return out
}

// refBuildPerThread is the reference thread-separated builder: every
// thread's stream cut into full vectors of the whole-system interval's
// sample count, ordered by (thread, index).
func refBuildPerThread(p *profiler.Profile, intervalInsts uint64) []refVector {
	per := max(int(intervalInsts/p.Period), 1)
	streams := map[int][]int{}
	for i := range p.Samples {
		th := p.Samples[i].Thread
		streams[th] = append(streams[th], i)
	}
	threads := make([]int, 0, len(streams))
	for th := range streams {
		threads = append(threads, th)
	}
	slices.Sort(threads)
	var out []refVector
	for _, th := range threads {
		s := streams[th]
		for k := 0; (k+1)*per <= len(s); k++ {
			out = append(out, refInterval(p, k, th, s[k*per:(k+1)*per]))
		}
	}
	return out
}

// checkAgainstRef fails unless set equals the reference vectors.
func checkAgainstRef(t *testing.T, set *Set, want []refVector) {
	t.Helper()
	if !slices.IsSorted(set.EIPTable) {
		t.Fatal("EIP table not ascending")
	}
	if len(set.Vectors) != len(want) {
		t.Fatalf("%d vectors, reference has %d", len(set.Vectors), len(want))
	}
	for i := range want {
		v, w := &set.Vectors[i], &want[i]
		if v.Index != w.index || v.Thread != w.thread {
			t.Fatalf("vector %d is (index %d, thread %d), reference (%d, %d)", i, v.Index, v.Thread, w.index, w.thread)
		}
		if v.CPI != w.cpi || v.Work != w.work || v.FE != w.fe || v.EXE != w.exe || v.Other != w.other {
			t.Fatalf("vector %d CPI/breakdown %v %v %v %v %v, reference %v %v %v %v %v",
				i, v.CPI, v.Work, v.FE, v.EXE, v.Other, w.cpi, w.work, w.fe, w.exe, w.other)
		}
		if !slices.IsSorted(v.Ranks) {
			t.Fatalf("vector %d ranks not ascending: %v", i, v.Ranks)
		}
		eips, counts := set.Row(i)
		got := map[uint64]int64{}
		for j, e := range eips {
			if j > 0 && eips[j-1] >= e {
				t.Fatalf("vector %d EIPs not strictly ascending at %d", i, j)
			}
			got[e] = counts[j]
		}
		if fmt.Sprint(got) != fmt.Sprint(w.hist) {
			t.Fatalf("vector %d histogram %v, reference %v", i, got, w.hist)
		}
	}
}

// oracleProfile builds a profile of n samples over exactly r distinct
// EIPs (0 and MaxUint64 among them when r >= 2), each used at least
// once, with irregular CPI and thread interleaving.
func oracleProfile(rng *xrand.Rand, r, n int) *profiler.Profile {
	pool := make([]uint64, r)
	for i := range pool {
		pool[i] = 0x400000 + uint64(i)*64 + uint64(rng.Intn(64))
	}
	if r >= 2 {
		pool[0], pool[1] = 0, math.MaxUint64
	}
	period := uint64(100 * (1 + rng.Intn(10)))
	p := &profiler.Profile{Workload: "oracle", Period: period}
	first := make([]int, r) // the order in which EIPs are first sampled
	rng.Perm(first)
	var c cpu.Counters
	for i := 0; i < n; i++ {
		c.Insts += period
		c.Cycles += uint64(float64(period) * (0.4 + rng.Float64()*5))
		c.WorkCycles = c.Cycles / 2
		c.FECycles = c.Cycles / 4
		c.EXECycles = c.Cycles / 8
		c.OtherCycles = c.Cycles - c.WorkCycles - c.FECycles - c.EXECycles
		eip := pool[rng.Intn(r)]
		if i < r {
			eip = pool[first[i]] // every EIP sampled, out of order
		}
		p.Samples = append(p.Samples, profiler.Sample{EIP: eip, Thread: rng.Intn(3), Counters: c})
	}
	return p
}

func TestBuildMatchesReference(t *testing.T) {
	rng := xrand.New(11)
	for _, r := range []int{1, 2, 63, 64, 65, 128, 300} {
		for _, ivMul := range []uint64{1, 2, 7, 40} { // 1: single-sample intervals
			p := oracleProfile(rng, r, 3*r+50)
			name := fmt.Sprintf("R=%d/interval=%dx", r, ivMul)
			t.Run(name, func(t *testing.T) {
				iv := ivMul * p.Period
				set := Build(p, iv)
				if len(set.EIPTable) != r {
					t.Fatalf("EIP table has %d entries, want %d", len(set.EIPTable), r)
				}
				checkAgainstRef(t, set, refBuild(p, iv))
				checkAgainstRef(t, BuildPerThread(p, iv), refBuildPerThread(p, iv))
			})
		}
	}
}

func TestBuildMatchesReferenceEmpty(t *testing.T) {
	p := &profiler.Profile{Workload: "empty", Period: 100}
	checkAgainstRef(t, Build(p, 1000), nil)
	checkAgainstRef(t, BuildPerThread(p, 1000), nil)
}
