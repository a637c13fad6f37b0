package cpu

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestRetireAccountingIdentity(t *testing.T) {
	// Cycles must always equal the sum of the four components.
	f := func(seed uint64) bool {
		c := New(Itanium2())
		r := xrand.New(seed)
		var ev BlockEvent
		for i := 0; i < 500; i++ {
			ev.Reset()
			ev.PC = 0x400000 + uint64(r.Intn(1<<16))*4
			ev.Insts = int32(1 + r.Intn(30))
			ev.BaseCPI = 0.3 + r.Float64()
			ev.HasBranch = r.Bool(0.5)
			ev.Taken = r.Bool(0.5)
			ev.ExtraStall = int32(r.Intn(10))
			for j := 0; j < r.Intn(MaxMemRefs+1); j++ {
				ev.AddMem(r.Uint64() % (1 << 30))
			}
			c.Retire(&ev)
		}
		ctr := c.Counters()
		return ctr.Cycles == ctr.WorkCycles+ctr.FECycles+ctr.EXECycles+ctr.OtherCycles
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBreakdownSumsToCPI(t *testing.T) {
	c := New(Itanium2())
	r := xrand.New(3)
	var ev BlockEvent
	for i := 0; i < 1000; i++ {
		ev.Reset()
		ev.PC = 0x400000 + uint64(r.Intn(256))*64
		ev.Insts = 10
		ev.BaseCPI = 0.5
		ev.AddMem(r.Uint64() % (64 << 20))
		c.Retire(&ev)
	}
	ctr := c.Counters()
	w, fe, exe, other := ctr.Breakdown()
	if math.Abs(w+fe+exe+other-ctr.CPI()) > 1e-9 {
		t.Fatalf("breakdown %v+%v+%v+%v != CPI %v", w, fe, exe, other, ctr.CPI())
	}
}

func TestHotLoopLowCPI(t *testing.T) {
	// A tiny loop over a tiny working set should converge to ~BaseCPI.
	c := New(Itanium2())
	var ev BlockEvent
	before := c.Counters()
	for i := 0; i < 20000; i++ {
		ev.Reset()
		ev.PC = 0x400000
		ev.Insts = 10
		ev.BaseCPI = 0.5
		ev.HasBranch = true
		ev.Taken = true
		ev.AddMem(0x100000000 + uint64(i%64)*64)
		c.Retire(&ev)
		if i == 999 {
			before = c.Counters() // skip warmup
		}
	}
	cpi := c.Counters().Sub(before).CPI()
	if cpi < 0.45 || cpi > 0.65 {
		t.Fatalf("hot loop CPI = %v, want ~0.5", cpi)
	}
}

func TestLargeWorkingSetHighCPI(t *testing.T) {
	// Random references over 64MB blow through the 3MB L3: CPI should be
	// dominated by memory latency (EXE component).
	c := New(Itanium2())
	r := xrand.New(7)
	var ev BlockEvent
	for i := 0; i < 20000; i++ {
		ev.Reset()
		ev.PC = 0x400000
		ev.Insts = 10
		ev.BaseCPI = 0.5
		ev.AddMem(0x100000000 + r.Uint64()%(64<<20))
		c.Retire(&ev)
	}
	ctr := c.Counters()
	_, _, exe, _ := ctr.Breakdown()
	if ctr.CPI() < 5 {
		t.Fatalf("memory-bound CPI = %v, want >> 1", ctr.CPI())
	}
	if exe/ctr.CPI() < 0.5 {
		t.Fatalf("EXE fraction = %v, want dominant", exe/ctr.CPI())
	}
	if ctr.L3Misses == 0 {
		t.Fatal("no L3 misses recorded")
	}
}

func TestPentiumIVNoL3Hurts(t *testing.T) {
	// A working set that fits in Itanium's 3MB L3 but not in P4's 512KB L2
	// must show substantially higher CPI on the P4 model.
	run := func(cfg Config) float64 {
		c := New(cfg)
		r := xrand.New(11)
		var ev BlockEvent
		for i := 0; i < 30000; i++ {
			ev.Reset()
			ev.PC = 0x400000
			ev.Insts = 10
			ev.BaseCPI = 0.5
			ev.AddMem(0x100000000 + r.Uint64()%(2<<20))
			c.Retire(&ev)
		}
		return c.Counters().CPI()
	}
	it2, p4 := run(Itanium2()), run(PentiumIV())
	if p4 < it2*1.5 {
		t.Fatalf("P4 CPI %v not clearly worse than Itanium2 %v for 2MB set", p4, it2)
	}
}

func TestMispredictChargesFE(t *testing.T) {
	c := New(Itanium2())
	r := xrand.New(13)
	var ev BlockEvent
	for i := 0; i < 5000; i++ {
		ev.Reset()
		ev.PC = 0x400000
		ev.Insts = 5
		ev.BaseCPI = 0.5
		ev.HasBranch = true
		ev.Taken = r.Bool(0.5) // unpredictable
		c.Retire(&ev)
	}
	ctr := c.Counters()
	if ctr.Mispredicts < 1000 {
		t.Fatalf("random branches mispredicted only %d/5000", ctr.Mispredicts)
	}
	if ctr.FECycles == 0 {
		t.Fatal("mispredicts charged no FE cycles")
	}
}

func TestLargeCodeFootprintChargesFE(t *testing.T) {
	// Walking a code footprint much larger than L1I+L2 generates I-side
	// stalls — the server-workload signature.
	c := New(Itanium2())
	var ev BlockEvent
	const blocks = 1 << 15 // 32K distinct blocks x 64B apart = 2MB of code
	for i := 0; i < 100000; i++ {
		ev.Reset()
		ev.PC = 0x400000 + uint64(i%blocks)*128
		ev.Insts = 10
		ev.BaseCPI = 0.6
		c.Retire(&ev)
	}
	ctr := c.Counters()
	_, fe, _, _ := ctr.Breakdown()
	if fe < 0.1 {
		t.Fatalf("FE component %v too small for 4MB code footprint", fe)
	}
	if ctr.L1IMisses == 0 {
		t.Fatal("no I-cache misses recorded")
	}
}

func TestContextSwitchPollutionRaisesCPI(t *testing.T) {
	run := func(pollute bool) float64 {
		c := New(Itanium2())
		var ev BlockEvent
		var start Counters
		for i := 0; i < 50000; i++ {
			if pollute && i%100 == 0 {
				c.ContextSwitch(0.5)
			}
			ev.Reset()
			ev.PC = 0x400000 + uint64(i%16)*64
			ev.Insts = 10
			ev.BaseCPI = 0.5
			ev.AddMem(0x100000000 + uint64(i%4096)*64)
			c.Retire(&ev)
			if i == 4999 {
				start = c.Counters()
			}
		}
		return c.Counters().Sub(start).CPI()
	}
	with, without := run(true), run(false)
	if with <= without {
		t.Fatalf("context-switch pollution did not raise CPI: %v vs %v", with, without)
	}
}

// walkStep is what one data access should cost: the data-side miss
// counter deltas and the EXE cycles charged.
type walkStep struct {
	l1d, l2, l3 uint64
	exe         int
}

// checkHierarchyWalk retires single-reference events against cfg's data
// hierarchy and checks, access by access, which levels missed and which
// latency Retire charged: a cold access, a warm one, one after the line was
// evicted from L1D only, and one after it was evicted from L1D and L2.
// Evictors map to the target's set at a stride of sets*LineSize and are
// never adjacent to a line the prefetcher tracks; the L2 evictors also
// cycle its 16-entry stream table, so no access is serviced as prefetched.
func checkHierarchyWalk(t *testing.T, cfg Config, want [4]walkStep) {
	t.Helper()
	c := New(cfg)
	const target = 0x100002040 // its L2 set differs from the fetched PC's
	access := func(a uint64) Counters {
		before := c.Counters()
		ev := BlockEvent{PC: 0x400000, Insts: 1, BaseCPI: 1}
		ev.AddMem(a)
		c.Retire(&ev)
		return c.Counters().Sub(before)
	}
	check := func(name string, d Counters, w walkStep) {
		t.Helper()
		got := walkStep{d.L1DMisses, d.L2Misses, d.L3Misses, int(d.EXECycles)}
		if got != w || d.PrefetchHits != 0 {
			t.Fatalf("%s %s access: misses L1D/L2/L3 %d/%d/%d, EXE %d, prefetch hits %d; want %d/%d/%d, EXE %d, none prefetched",
				cfg.Name, name, got.l1d, got.l2, got.l3, got.exe, d.PrefetchHits, w.l1d, w.l2, w.l3, w.exe)
		}
	}
	check("cold", access(target), want[0])
	check("warm", access(target), want[1])
	l1Stride := uint64(cfg.L1D.Size) / uint64(cfg.L1D.Assoc)
	for k := uint64(1); k <= uint64(cfg.L1D.Assoc); k++ {
		access(target + k*l1Stride)
	}
	check("L1D-evicted", access(target), want[2])
	l2Stride := uint64(cfg.L2.Size) / uint64(cfg.L2.Assoc)
	for k := uint64(1); k <= 16; k++ {
		access(target + k*l2Stride)
	}
	check("L2-evicted", access(target), want[3])
}

// TestRetireHierarchyWalk: on Itanium 2 a cold access misses every level
// and pays memory latency, a warm one hits L1D, and after evictions the
// line is serviced by L2, then by L3, at those levels' latencies.
func TestRetireHierarchyWalk(t *testing.T) {
	cfg := Itanium2()
	lat := cfg.Lat
	checkHierarchyWalk(t, cfg, [4]walkStep{
		{1, 1, 1, lat.Memory},
		{0, 0, 0, 0},
		{1, 0, 0, lat.L2Hit},
		{1, 1, 0, lat.L3Hit},
	})
}

// TestRetireHierarchyWalkNoL3: on Pentium 4, which has no L3, every L2
// miss counts as an L3 miss and goes to memory.
func TestRetireHierarchyWalkNoL3(t *testing.T) {
	cfg := PentiumIV()
	lat := cfg.Lat
	checkHierarchyWalk(t, cfg, [4]walkStep{
		{1, 1, 1, lat.Memory},
		{0, 0, 0, 0},
		{1, 0, 0, lat.L2Hit},
		{1, 1, 1, lat.Memory},
	})
}

func TestRetirePanicsOnBadEvent(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Insts=0")
		}
	}()
	New(Itanium2()).Retire(&BlockEvent{PC: 1})
}

func TestAddMemOverflowDropped(t *testing.T) {
	var ev BlockEvent
	for i := 0; i < MaxMemRefs+3; i++ {
		ev.AddMem(uint64(i))
	}
	if ev.NMem != MaxMemRefs {
		t.Fatalf("NMem = %d, want %d", ev.NMem, MaxMemRefs)
	}
	if ev.DroppedMem != 3 {
		t.Fatalf("DroppedMem = %d, want 3", ev.DroppedMem)
	}
}

func TestAddMemDropCounterSaturates(t *testing.T) {
	var ev BlockEvent
	for i := 0; i < MaxMemRefs+300; i++ {
		ev.AddMem(uint64(i))
	}
	if ev.DroppedMem != 255 {
		t.Fatalf("DroppedMem = %d, want saturation at 255", ev.DroppedMem)
	}
}

func TestCoreAccumulatesDroppedMemRefs(t *testing.T) {
	c := New(Itanium2())
	ev := BlockEvent{PC: 0x400000, Insts: 4, BaseCPI: 1}
	for i := 0; i < MaxMemRefs+2; i++ {
		ev.AddMem(uint64(0x100000000 + i*64))
	}
	c.Retire(&ev)
	c.Retire(&ev)
	if got := c.MemRefsDropped(); got != 4 {
		t.Fatalf("MemRefsDropped = %d, want 4 (2 drops x 2 retirements)", got)
	}
}

func TestCountersSub(t *testing.T) {
	a := Counters{Insts: 100, Cycles: 250, WorkCycles: 100, EXECycles: 150}
	b := Counters{Insts: 40, Cycles: 100, WorkCycles: 40, EXECycles: 60}
	d := a.Sub(b)
	if d.Insts != 60 || d.Cycles != 150 || d.WorkCycles != 60 || d.EXECycles != 90 {
		t.Fatalf("Sub = %+v", d)
	}
	if d.CPI() != 2.5 {
		t.Fatalf("CPI = %v", d.CPI())
	}
	var zero Counters
	if zero.CPI() != 0 {
		t.Fatal("zero CPI != 0")
	}
}

func TestConfigByName(t *testing.T) {
	for _, name := range []string{"itanium2", "pentium4", "xeon"} {
		cfg, err := ConfigByName(name)
		if err != nil || cfg.Name != name {
			t.Fatalf("ConfigByName(%q) = %v, %v", name, cfg.Name, err)
		}
		New(cfg) // geometry must be constructible
	}
	if _, err := ConfigByName("cray"); err == nil {
		t.Fatal("unknown config did not error")
	}
}

func TestXeonL3BetweenItaniumAndP4(t *testing.T) {
	// For an L3-resident working set the Xeon (small L3) should land
	// between Itanium 2 (big L3) and P4 (no L3).
	run := func(cfg Config) float64 {
		c := New(cfg)
		r := xrand.New(17)
		var ev BlockEvent
		for i := 0; i < 30000; i++ {
			ev.Reset()
			ev.PC = 0x400000
			ev.Insts = 10
			ev.BaseCPI = 0.5
			ev.AddMem(0x100000000 + r.Uint64()%(900<<10))
			c.Retire(&ev)
		}
		return c.Counters().CPI()
	}
	it2, xeon, p4 := run(Itanium2()), run(Xeon()), run(PentiumIV())
	if !(it2 < xeon && xeon < p4) {
		t.Fatalf("ordering violated: itanium2=%v xeon=%v p4=%v", it2, xeon, p4)
	}
}

func BenchmarkRetire(b *testing.B) {
	c := New(Itanium2())
	r := xrand.New(1)
	evs := make([]BlockEvent, 1024)
	for i := range evs {
		evs[i] = BlockEvent{
			PC:      0x400000 + uint64(r.Intn(4096))*64,
			Insts:   12,
			BaseCPI: 0.5,
			NMem:    2,
		}
		evs[i].Mem[0] = r.Uint64() % (16 << 20)
		evs[i].Mem[1] = r.Uint64() % (16 << 20)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Retire(&evs[i&1023])
	}
}
