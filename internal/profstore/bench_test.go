package profstore_test

// The profile-store benchmark trio measures the store's tiers: how long
// a profile collection takes cold (full simulation), disk-warm (one read
// and DecodeResult of a stored entry), and memory-warm (an LRU lookup and
// a DecodeResult of the retained bytes).
// `make bench-kernels` runs them and archives the results in
// BENCH_kernels.json.
//
// The external test package (profstore_test) lets these benches import the
// workload registry without an import cycle.

import (
	"context"
	"testing"

	"repro/internal/cpu"
	"repro/internal/profiler"
	"repro/internal/profstore"
	_ "repro/internal/workload/all" // register every workload
)

// benchFamilies samples one workload per paper family: a SPEC analog, the
// OLTP database, the J2EE appserver, and a DSS query.
var benchFamilies = []string{"spec.gzip", "odb-c", "sjas", "odb-h.q13"}

// benchIntervals matches the default Table 2 run length.
const benchIntervals = 320

func benchKey(name string) profstore.Key {
	return profstore.Key{
		Workload:  name,
		Machine:   cpu.Itanium2(),
		Seed:      1,
		Intervals: benchIntervals,
	}
}

func collect(ctx context.Context, name string) (*profiler.CollectResult, error) {
	return profiler.CollectByName(name, profiler.CollectOptions{
		Machine:   cpu.Itanium2(),
		Seed:      1,
		Intervals: benchIntervals,
	})
}

// BenchmarkCollectCold is the baseline: every iteration runs the full
// simulation (the store's memory tier is dropped and no disk tier is
// attached, so Get always recomputes).
func BenchmarkCollectCold(b *testing.B) {
	for _, name := range benchFamilies {
		b.Run(name, func(b *testing.B) {
			s := profstore.New()
			key := benchKey(name)
			for i := 0; i < b.N; i++ {
				s.DropMemory()
				if _, err := s.Get(context.Background(), key, func(ctx context.Context) (*profiler.CollectResult, error) {
					return collect(ctx, name)
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCollectDiskWarm measures the disk tier: the entry is on disk
// (written once before the clock starts), the memory tier is dropped each
// iteration, so every Get is one read+decode of the stored entry.
func BenchmarkCollectDiskWarm(b *testing.B) {
	for _, name := range benchFamilies {
		b.Run(name, func(b *testing.B) {
			s := profstore.New()
			if err := s.SetDir(b.TempDir()); err != nil {
				b.Fatal(err)
			}
			key := benchKey(name)
			if _, err := s.Get(context.Background(), key, func(ctx context.Context) (*profiler.CollectResult, error) {
				return collect(ctx, name)
			}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.DropMemory()
				if _, err := s.Get(context.Background(), key, func(context.Context) (*profiler.CollectResult, error) {
					b.Fatal("disk-warm bench recomputed")
					return nil, nil
				}); err != nil {
					b.Fatal(err)
				}
			}
			if st := s.Stats(); st.DiskHits < uint64(b.N) {
				b.Fatalf("only %d disk hits for %d iterations", st.DiskHits, b.N)
			}
		})
	}
}

// BenchmarkCollectMemWarm measures the memory tier: an LRU hit, which
// decodes the entry's retained FZPR bytes (the first Get took the
// computed result itself).
func BenchmarkCollectMemWarm(b *testing.B) {
	for _, name := range benchFamilies {
		b.Run(name, func(b *testing.B) {
			s := profstore.New()
			key := benchKey(name)
			if _, err := s.Get(context.Background(), key, func(ctx context.Context) (*profiler.CollectResult, error) {
				return collect(ctx, name)
			}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Get(context.Background(), key, func(context.Context) (*profiler.CollectResult, error) {
					b.Fatal("mem-warm bench recomputed")
					return nil, nil
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
