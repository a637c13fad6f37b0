package workload

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/addr"
	"repro/internal/cpu"
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

// item is one element of a runner's delivered stream: an event, every
// field of it, or a wait.
type item struct {
	ev   cpu.BlockEvent
	wait uint64
}

// blk is the item EmitBlock(BlockRef{PC: pc}, 10, 0.5) delivers.
func blk(pc uint64) item {
	return item{ev: cpu.BlockEvent{PC: pc, Insts: 10, BaseCPI: 0.5}}
}

// drain pulls r's whole stream through Pending and Consume.
func drain(r osim.Runner) []item {
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
		for _, ev := range evs {
			out = append(out, item{ev: ev})
		}
		r.Consume(len(evs))
	}
}

// follow drains r, consuming at most step events per call so that runs
// are also split part-way, and describes the first difference from want,
// or returns "" when the streams are equal. It allocates nothing on a
// matching stream, so a test can keep the garbage collector from
// emptying chunkPool between runners.
func follow(r osim.Runner, step int, want []item) string {
	n := 0
	next := func(got item) string {
		if n == len(want) {
			return fmt.Sprintf("item %d is %+v, past the %d wanted", n, got, len(want))
		}
		if got != want[n] {
			return fmt.Sprintf("item %d is %+v, want %+v", n, got, want[n])
		}
		n++
		return ""
	}
	for {
		evs, w := r.Pending()
		if len(evs) == 0 {
			if w == 0 {
				break
			}
			if d := next(item{wait: w}); d != "" {
				return d
			}
			continue
		}
		k := min(step, len(evs))
		for _, ev := range evs[:k] {
			if d := next(item{ev: ev}); d != "" {
				return d
			}
		}
		r.Consume(k)
	}
	if n != len(want) {
		return fmt.Sprintf("%d items, want %d", n, len(want))
	}
	return ""
}

// followLookahead follows g's stream through a lookahead producer.
func followLookahead(g Gen, step int, want []item) string {
	r := NewIndependentRunner(g).(osim.TraceBuffered)
	r.StartLookahead(osim.NewTracePool(1))
	defer r.StopLookahead()
	return follow(r, step, want)
}

// checkStream drains fresh runners from newGen, whole runs at a time and
// one event at a time, and compares each stream with want, or with the
// inline runner's stream when want is nil. Lookahead runners run three
// times one after another and then four at once, so that every chunk
// after the first few is one an earlier or a concurrent runner returned to
// chunkPool.
func checkStream(t *testing.T, newGen func() Gen, want []item) {
	t.Helper()
	if want == nil {
		want = drain(NewRunner(newGen()))
	}
	for _, step := range []int{1, 1 << 30} {
		if d := follow(NewRunner(newGen()), step, want); d != "" {
			t.Errorf("NewRunner, step %d: %s", step, d)
		}
		for i := range 3 {
			if d := followLookahead(newGen(), step, want); d != "" {
				t.Errorf("lookahead run %d, step %d: %s", i, step, d)
			}
		}
		diffs := make([]string, 4)
		var wg sync.WaitGroup
		for i := range diffs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				diffs[i] = followLookahead(newGen(), step, want)
			}()
		}
		wg.Wait()
		for i, d := range diffs {
			if d != "" {
				t.Errorf("concurrent lookahead %d, step %d: %s", i, step, d)
			}
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
	checkStream(t, newGen, []item{blk(100), blk(101), blk(200), blk(201), blk(300), blk(301)})
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
	checkStream(t, newGen, []item{blk(1), {wait: 777}, blk(2)})
}

// longBursts are the burst sizes of longGen, in events: below, at and
// past lookaheadChunk, so that some chunks end exactly on a burst and
// some bursts overflow a chunk and grow its buffer.
var longBursts = []int{
	lookaheadChunk - 1, 1, lookaheadChunk + 300, 0, 7,
	2*lookaheadChunk + 5, lookaheadChunk - 2, 500, lookaheadChunk,
}

// longGen returns a generator whose stream spans about ten lookahead
// chunks and whose every event field depends on seed and position. Each
// burst ends with a wait and every other one also starts with one, so
// waits fall just before, on and just after chunk boundaries; the
// zero-event burst is a wait alone.
func longGen(seed uint64) Gen {
	b, n := 0, 0
	return GenFunc(func(e *Emitter) {
		if b == len(longBursts) {
			e.Done()
			return
		}
		if b%2 == 1 {
			e.Wait(seed<<20 | uint64(b))
		}
		for range longBursts[b] {
			ev := e.Alloc()
			ev.PC = seed<<32 | uint64(n)
			ev.ID = int32(n)
			ev.Insts = int32(1 + n%13)
			ev.BaseCPI = float64(seed) + float64(n)/8
			ev.ExtraStall = int32(n % 5)
			for m := range n % (cpu.MaxMemRefs + 1) {
				ev.AddMem(seed<<40 | uint64(n)<<4 | uint64(m))
			}
			e.Commit(ev)
			n++
		}
		b++
		e.Wait(seed<<24 | uint64(b))
	})
}

// stopMidStream stops a lookahead runner part-way through its current
// chunk once its producer has filled the channel, so StopLookahead
// recycles undelivered chunks and a partly consumed one.
func stopMidStream(t *testing.T, g Gen) {
	t.Helper()
	r := NewIndependentRunner(g).(*lookaheadRunner)
	r.StartLookahead(osim.NewTracePool(1))
	evs, _ := r.Pending()
	r.Consume(len(evs) / 2)
	for len(r.ch) < lookaheadDepth {
		runtime.Gosched()
	}
	r.StopLookahead()
	if evs, w := r.Pending(); len(evs) != 0 || w != 0 {
		t.Fatalf("Pending after StopLookahead = %d events, wait %d; want the end of the trace", len(evs), w)
	}
}

// TestLookaheadRecycledChunks delivers long streams through recycled
// chunks. Each seed's runners fill chunks still holding another seed's
// events, delivered or not, in buffers that oversized bursts have grown,
// and must deliver exactly what the inline runner does. The garbage
// collector is off so that it cannot empty chunkPool between runners.
func TestLookaheadRecycledChunks(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	items := 0
	for _, n := range longBursts {
		items += n + 1
	}
	if items < 3*lookaheadChunk {
		t.Fatalf("longGen stream has %d items, want more than 3 chunks", items)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		stopMidStream(t, longGen(seed+100))
		checkStream(t, func() Gen { return longGen(seed) }, nil)
	}
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
