//go:build !race

// The race detector drops sync.Pool items at random by design, so under
// -race a runner may find chunkPool empty and make a fresh chunk; the
// allocation pin below therefore builds only without it.

package workload

import (
	"testing"

	"repro/internal/osim"
)

// TestLookaheadChunksComeFromPool pins chunk recycling: a lookahead runner
// started after another has finished fills chunks that runner returned to
// chunkPool. Its stream spans 32 chunks, each with waits, so making fresh
// chunks would cost at least 32 allocations. The producer's staging
// emitter comes from the pool as well, so the bound, 9 as measured, leaves
// room for the runner, its channels, its producer goroutine, the generator
// and the trace pool, and for no buffer: growing a staging emitter from
// empty would take it to 18.
func TestLookaheadChunksComeFromPool(t *testing.T) {
	const (
		chunks    = 32
		burst     = 64
		maxAllocs = 9
	)
	run := func() {
		bursts := 0
		g := GenFunc(func(e *Emitter) {
			if bursts == chunks*lookaheadChunk/burst {
				e.Done()
				return
			}
			bursts++
			for i := range burst {
				e.EmitBlock(BlockRef{PC: uint64(i)}, 10, 0.5)
			}
			if bursts%8 == 0 {
				e.Wait(100)
			}
		})
		r := NewIndependentRunner(g).(osim.TraceBuffered)
		r.StartLookahead(osim.NewTracePool(1))
		for {
			evs, w := r.Pending()
			if len(evs) == 0 && w == 0 {
				break
			}
			r.Consume(len(evs))
		}
		r.StopLookahead()
	}
	allocs := testing.AllocsPerRun(20, run)
	if allocs > maxAllocs {
		t.Fatalf("a lookahead runner after another made %.1f allocations, want at most %d", allocs, maxAllocs)
	}
}
