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

// BenchmarkCollectBatched is the production cold-collection path.
func BenchmarkCollectBatched(b *testing.B) {
	for _, name := range collectFamilies {
		b.Run(name, func(b *testing.B) {
			opt := profiler.CollectOptions{
				Machine:   cpu.Itanium2(),
				Seed:      1,
				Intervals: collectBenchIntervals,
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
