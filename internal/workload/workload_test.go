package workload

import (
	"slices"
	"testing"

	"repro/internal/addr"
	"repro/internal/osim"
)

func TestCodeRegionPCsDistinctAndContained(t *testing.T) {
	space := addr.NewSpace()
	c := NewCodeRegion(space, "f", 100)
	seen := map[uint64]bool{}
	ids := map[int32]bool{}
	for i := 0; i < 100; i++ {
		b := c.PC(i)
		if !c.Region.Contains(b.PC) {
			t.Fatalf("PC(%d)=%#x outside region %v", i, b.PC, c.Region)
		}
		if seen[b.PC] {
			t.Fatalf("duplicate PC %#x", b.PC)
		}
		if ids[b.ID] {
			t.Fatalf("duplicate block id %d", b.ID)
		}
		seen[b.PC] = true
		ids[b.ID] = true
	}
	if c.PC(100) != c.PC(0) {
		t.Fatal("PC does not wrap")
	}
	if c.PC(-1) != c.PC(99) {
		t.Fatal("negative PC index mishandled")
	}
}

func TestNextPCCoversRegion(t *testing.T) {
	space := addr.NewSpace()
	c := NewCodeRegion(space, "f", 64)
	seen := map[uint64]bool{}
	for i := 0; i < 4000; i++ {
		b := c.NextPC()
		if !c.Region.Contains(b.PC) {
			t.Fatalf("walk escaped region: %#x", b.PC)
		}
		seen[b.PC] = true
	}
	if len(seen) < 60 {
		t.Fatalf("random walk covered only %d/64 blocks", len(seen))
	}
}

func TestSeqPCCycles(t *testing.T) {
	space := addr.NewSpace()
	c := NewCodeRegion(space, "f", 5)
	first := make([]BlockRef, 5)
	for i := range first {
		first[i] = c.SeqPC()
	}
	for i := 0; i < 5; i++ {
		if c.SeqPC() != first[i] {
			t.Fatal("SeqPC second cycle differs")
		}
	}
}

// TestEmitterBatch pins the batch view of an emitted stream: maximal
// event runs cut at wait marks, waits consumed between them, and a
// drained buffer that can be reused.
func TestEmitterBatch(t *testing.T) {
	var e Emitter
	e.Wait(7)
	e.EmitBlock(BlockRef{PC: 1}, 10, 0.5)
	e.EmitBlock(BlockRef{PC: 2}, 10, 0.5)
	e.Wait(99)
	e.Wait(100)
	e.EmitBlock(BlockRef{PC: 3}, 10, 0.5)

	evs, w, ok := e.batch()
	if !ok || len(evs) != 0 || w != 7 {
		t.Fatalf("batch1 = %d evs, w=%d, ok=%v; want leading wait 7", len(evs), w, ok)
	}
	evs, w, ok = e.batch()
	if !ok || w != 0 || len(evs) != 2 || evs[0].PC != 1 || evs[1].PC != 2 {
		t.Fatalf("batch2 = %+v w=%d ok=%v", evs, w, ok)
	}
	e.head += len(evs) // consume the run
	evs, w, _ = e.batch()
	if len(evs) != 0 || w != 99 {
		t.Fatalf("batch3 = %d evs, w=%d; want wait 99", len(evs), w)
	}
	evs, w, _ = e.batch()
	if len(evs) != 0 || w != 100 {
		t.Fatalf("batch4 = %d evs, w=%d; want wait 100", len(evs), w)
	}
	evs, w, _ = e.batch()
	if w != 0 || len(evs) != 1 || evs[0].PC != 3 {
		t.Fatalf("batch5 = %+v w=%d", evs, w)
	}
	e.head++
	if _, _, ok := e.batch(); ok {
		t.Fatal("batch on drained emitter succeeded")
	}
	// Drain resets the buffer for reuse.
	e.EmitBlock(BlockRef{PC: 4}, 5, 1)
	if evs, _, ok := e.batch(); !ok || len(evs) != 1 || evs[0].PC != 4 {
		t.Fatal("reuse after drain failed")
	}
}

// item is one element of a runner's delivered stream: an event's PC, or
// a wait.
type item struct{ pc, wait uint64 }

// drain pulls r's whole stream through Pending and Consume, consuming at
// most step events per call so that runs are also split part-way.
func drain(r osim.Runner, step int) []item {
	var out []item
	for {
		evs, w := r.Pending()
		if len(evs) == 0 {
			if w == 0 {
				return out
			}
			out = append(out, item{wait: w})
			continue
		}
		n := min(step, len(evs))
		for _, ev := range evs[:n] {
			out = append(out, item{pc: ev.PC})
		}
		r.Consume(n)
	}
}

// checkStream drains a fresh runner from newGen, whole runs at a time and
// one event at a time, inline and through a lookahead producer, and
// compares each stream with want.
func checkStream(t *testing.T, newGen func() Gen, want []item) {
	t.Helper()
	for _, step := range []int{1, 1 << 30} {
		if got := drain(NewRunner(newGen()), step); !slices.Equal(got, want) {
			t.Errorf("NewRunner, step %d: got %v, want %v", step, got, want)
		}
		r := NewIndependentRunner(newGen()).(osim.TraceBuffered)
		r.StartLookahead(osim.NewTracePool(1))
		got := drain(r, step)
		r.StopLookahead()
		if !slices.Equal(got, want) {
			t.Errorf("lookahead, step %d: got %v, want %v", step, got, want)
		}
	}
}

func TestRunnerDeliversBurstsInOrder(t *testing.T) {
	newGen := func() Gen {
		n := 0
		return GenFunc(func(e *Emitter) {
			if n >= 3 {
				e.Done()
				return
			}
			n++
			e.EmitBlock(BlockRef{PC: uint64(n * 100)}, 10, 0.5)
			e.EmitBlock(BlockRef{PC: uint64(n*100 + 1)}, 10, 0.5)
		})
	}
	checkStream(t, newGen, []item{{pc: 100}, {pc: 101}, {pc: 200}, {pc: 201}, {pc: 300}, {pc: 301}})
}

func TestRunnerDeliversWaits(t *testing.T) {
	newGen := func() Gen {
		first := true
		return GenFunc(func(e *Emitter) {
			if !first {
				e.Done()
				return
			}
			first = false
			e.EmitBlock(BlockRef{PC: 1}, 10, 0.5)
			e.Wait(777)
			e.EmitBlock(BlockRef{PC: 2}, 10, 0.5)
		})
	}
	checkStream(t, newGen, []item{{pc: 1}, {wait: 777}, {pc: 2}})
}

func TestRunnerPanicsOnStuckGen(t *testing.T) {
	r := NewRunner(GenFunc(func(e *Emitter) {})) // never emits, never Done
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on no-progress generator")
		}
	}()
	r.Pending()
}

func TestRegistry(t *testing.T) {
	Register("test-wl-registry", func() Workload { return nil })
	if _, ok := Lookup("test-wl-registry"); !ok {
		t.Fatal("registered workload not found")
	}
	if _, ok := Lookup("no-such-workload"); ok {
		t.Fatal("lookup of unknown workload succeeded")
	}
	found := false
	for _, n := range Names() {
		if n == "test-wl-registry" {
			found = true
		}
	}
	if !found {
		t.Fatal("Names missing registered workload")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	Register("test-wl-registry", func() Workload { return nil })
}

func TestSeconds(t *testing.T) {
	// One simulated cycle = Scale real cycles at ClockHz.
	if got := Seconds(900_000); got < 0.999 || got > 1.001 {
		t.Fatalf("Seconds(900k) = %v, want ~1", got)
	}
}

func TestScaleRatios(t *testing.T) {
	if IntervalInsts/SamplePeriod != 100 {
		t.Fatalf("interval/period = %d, paper requires 100 samples per EIPV", IntervalInsts/SamplePeriod)
	}
	if SamplePeriod/SamplePeriodFine != 10 {
		t.Fatal("SjAS sampling must be 10x finer")
	}
}
