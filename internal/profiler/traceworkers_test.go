package profiler

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/addr"
	"repro/internal/osim"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// prof-indep: three threads — two trace-independent generators with their
// own regions, RNGs, and I/O waits, plus one deliberately *inline* runner —
// exercising the lookahead machinery against the serial merge.
func init() {
	workload.Register("prof-indep", func() workload.Workload { return &indepWL{} })
}

type indepWL struct{}

func (*indepWL) Name() string         { return "prof-indep" }
func (*indepWL) SamplePeriod() uint64 { return 100 }
func (*indepWL) Setup(sched *osim.Sched, space *addr.Space, seed uint64) {
	for i := 0; i < 2; i++ {
		code := workload.NewCodeRegion(space, fmt.Sprintf("indep%d", i), 64)
		rng := xrand.New(seed + uint64(i)*7919)
		sched.Add(workload.NewIndependentRunner(workload.GenFunc(func(e *workload.Emitter) {
			for n := 0; n < 8; n++ {
				e.EmitBlock(code.NextPC(), 10, 0.5+0.1*float64(n%3))
			}
			if rng.Bool(0.1) {
				e.Wait(rng.Uint64n(500) + 1)
			}
		})))
	}
	inline := workload.NewCodeRegion(space, "inline", 16)
	sched.Add(workload.NewRunner(workload.GenFunc(func(e *workload.Emitter) {
		e.EmitBlock(inline.SeqPC(), 12, 0.7)
	})))
}

// TestCollectByteIdenticalAcrossTraceWorkers is the determinism contract
// that lets TraceWorkers stay out of profile-store keys: the encoded
// result — samples, counters, OS stats, regions — must be byte-identical
// whether traces are generated inline or by any number of lookahead
// workers. Intervals is kept small so the scheduler exits mid-trace,
// which also exercises producer shutdown on the early-exit path.
func TestCollectByteIdenticalAcrossTraceWorkers(t *testing.T) {
	var want []byte
	for _, tw := range []int{0, 1, 2, 4, 8} {
		res, err := CollectByName("prof-indep", CollectOptions{Seed: 3, Intervals: 2, TraceWorkers: tw, BuildBBV: true})
		if err != nil {
			t.Fatalf("TraceWorkers=%d: %v", tw, err)
		}
		data := EncodeResult(res)
		if want == nil {
			want = data
			continue
		}
		if !bytes.Equal(data, want) {
			t.Fatalf("TraceWorkers=%d: profile differs from inline collection", tw)
		}
	}
}

// TestCollectRepeatedLookahead re-runs the same lookahead collection many
// times: goroutine scheduling must never leak into the output.
func TestCollectRepeatedLookahead(t *testing.T) {
	var want []byte
	for i := 0; i < 5; i++ {
		res, err := CollectByName("prof-indep", CollectOptions{Seed: 11, Intervals: 1, TraceWorkers: 3})
		if err != nil {
			t.Fatal(err)
		}
		data := EncodeResult(res)
		if want == nil {
			want = data
		} else if !bytes.Equal(data, want) {
			t.Fatalf("run %d: lookahead collection is not reproducible", i)
		}
	}
}

// TestConcurrentLookaheadCollections runs lookahead collections at once,
// as a cold-analysis batch does. Their runners recycle chunks through one
// process-wide pool, and each must still encode to the inline bytes.
func TestConcurrentLookaheadCollections(t *testing.T) {
	opt := CollectOptions{Seed: 5, Intervals: 2, BuildBBV: true}
	res, err := CollectByName("prof-indep", opt)
	if err != nil {
		t.Fatal(err)
	}
	want := EncodeResult(res)
	opt.TraceWorkers = 2
	errs := make([]error, 4)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := CollectByName("prof-indep", opt)
			if err == nil && !bytes.Equal(EncodeResult(res), want) {
				err = fmt.Errorf("profile differs from inline collection")
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("collection %d: %v", i, err)
		}
	}
}
