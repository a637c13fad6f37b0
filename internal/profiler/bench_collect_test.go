package profiler_test

// BenchmarkCollectBatched times cold collection: interned block ids,
// batched retirement, slice accumulators and skip-aware observation, one
// workload per paper family. oracle_test.go pins the bytes it produces.
// `make bench-kernels` records it in BENCH_kernels.json.

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/profiler"
	_ "repro/internal/workload/all" // register every workload
)

// collectFamilies samples one workload per paper family: a SPEC analog,
// the OLTP database, the J2EE appserver, and a DSS query.
var collectFamilies = []string{"spec.gzip", "odb-c", "sjas", "odb-h.q13"}

// collectBenchIntervals matches the default Table 2 run length (and the
// profstore benchmark), so the Collect rows of BENCH_kernels.json
// describe the same work.
const collectBenchIntervals = 320

// BenchmarkCollectBatched is the production cold-collection path, inline
// and, in the -lookahead rows, with the two lookahead trace workers a
// cold analysis on two CPUs runs; those rows show the recycled chunk
// buffers in B/op.
func BenchmarkCollectBatched(b *testing.B) {
	for _, name := range collectFamilies {
		for _, tw := range []int{0, 2} {
			row := name
			if tw > 0 {
				row += "-lookahead"
			}
			b.Run(row, func(b *testing.B) {
				opt := profiler.CollectOptions{
					Machine:      cpu.Itanium2(),
					Seed:         1,
					Intervals:    collectBenchIntervals,
					TraceWorkers: tw,
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := profiler.CollectByName(name, opt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
