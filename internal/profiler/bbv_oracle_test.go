package profiler

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/addr"
	"repro/internal/cpu"
	"repro/internal/osim"
	"repro/internal/workload"
	_ "repro/internal/workload/all" // register the Table 2 workloads
)

// mapBBV is the BBV builder the row form replaced, kept as the oracle of
// the dense accumulator's flush: each interval's executions are counted
// in a map keyed by block PC, and the map becomes a row by sorting its
// keys when the interval closes.
type mapBBV struct {
	core   *cpu.Core
	counts map[uint64]int
	last   cpu.Counters
	rows   []BlockVector
}

func (b *mapBBV) AfterRetire(ev *cpu.BlockEvent) {
	b.counts[ev.PC]++
	if b.core.Insts()-b.last.Insts < workload.IntervalInsts {
		return
	}
	ctr := b.core.Counters()
	v := BlockVector{Index: len(b.rows), CPI: ctr.Sub(b.last).CPI()}
	for pc := range b.counts {
		v.PCs = append(v.PCs, pc)
	}
	slices.Sort(v.PCs)
	for _, pc := range v.PCs {
		v.Counts = append(v.Counts, int64(b.counts[pc]))
	}
	b.rows = append(b.rows, v)
	b.counts = map[uint64]int{}
	b.last = ctr
}

func (b *mapBBV) SkipUntil() uint64 { return 0 }

// mapBBVRows simulates the named workload as Collect does, on the default
// machine with traces generated inline, and returns mapBBV's rows.
func mapBBVRows(t *testing.T, name string, seed uint64, intervals int) []BlockVector {
	t.Helper()
	f, ok := workload.Lookup(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	core := cpu.New(cpu.Itanium2())
	space := addr.NewSpace()
	sched := osim.New(core, space, osim.DefaultConfig())
	f().Setup(sched, space, seed)
	b := &mapBBV{core: core, counts: map[uint64]int{}}
	sched.RunObserved(uint64(intervals)*workload.IntervalInsts, b)
	return b.rows
}

// TestBBVRowsMatchMapOracle: the BBV rows a collection returns equal the
// map builder's rows field for field, on the lookahead fixture and on a
// DSS and a J2EE workload, so the rows index exactly as the maps did.
func TestBBVRowsMatchMapOracle(t *testing.T) {
	const seed, intervals = 1, 20
	for _, name := range []string{"prof-indep", "odb-h.q13", "sjas"} {
		t.Run(name, func(t *testing.T) {
			res, err := CollectByName(name, CollectOptions{Seed: seed, Intervals: intervals, BuildBBV: true, TraceWorkers: 2})
			if err != nil {
				t.Fatal(err)
			}
			want := mapBBVRows(t, name, seed, intervals)
			if len(want) == 0 {
				t.Fatal("the oracle closed no interval")
			}
			if len(res.BBV) != len(want) {
				t.Fatalf("%d BBV rows, oracle has %d", len(res.BBV), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(res.BBV[i], want[i]) {
					t.Fatalf("row %d differs from the oracle's:\n got  index %d, CPI %v, %d PCs\n want index %d, CPI %v, %d PCs",
						i, res.BBV[i].Index, res.BBV[i].CPI, len(res.BBV[i].PCs), want[i].Index, want[i].CPI, len(want[i].PCs))
				}
			}
		})
	}
}
