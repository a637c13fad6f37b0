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
	// 20000 references that all hit L3 or closer charge at most
	// 20000·L3Hit; only misses to memory charge more.
	if l3 := uint64(20000 * Itanium2().Lat.L3Hit); ctr.EXECycles <= l3 {
		t.Fatalf("EXE cycles %d, want above the all-L3-hit bound %d", ctr.EXECycles, l3)
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
	// Every event fetches one PC, so the only I-side charge is its cold
	// miss; the rest of FE is mispredictions, at least 1000 of 5000.
	fe, want := c.Counters().FECycles-c.feMem, uint64(1000*Itanium2().MispredictPenalty)
	if fe < want {
		t.Fatalf("FE cycles net of the cold I-miss %d, want at least %d (1000 mispredictions)", fe, want)
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
	// No event has a branch, so FE is all I-cache misses.
	_, fe, _, _ := c.Counters().Breakdown()
	if fe < 0.1 {
		t.Fatalf("FE component %v too small for 4MB code footprint", fe)
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

// checkHierarchyWalk retires single-reference events against cfg's data
// hierarchy and checks, access by access, the EXE latency Retire charged,
// which names the servicing level because L2, L3 and memory latencies
// differ on every stock machine: a cold access, a warm one, one after the
// line was evicted from L1D only, and one after it was evicted from L1D
// and L2. Evictors map to the target's set at a stride of sets*LineSize.
// Before each checked access, far lines in other sets cycle the
// prefetcher's 16-entry stream table, so no checked access is serviced as
// prefetched: a prefetched L2 miss is charged L2 latency and would pass
// for an L2 hit.
func checkHierarchyWalk(t *testing.T, cfg Config, want [4]int) {
	t.Helper()
	c := New(cfg)
	const target = 0x100002040 // its L2 set differs from the fetched PC's
	access := func(a uint64) uint64 {
		before := c.ctr.EXECycles
		ev := BlockEvent{PC: 0x400000, Insts: 1, BaseCPI: 1}
		ev.AddMem(a)
		c.Retire(&ev)
		return c.ctr.EXECycles - before
	}
	far := uint64(0x200000c00) // 1 MiB apart, in no set the target or PC use
	check := func(name string, w int) {
		t.Helper()
		for k := 0; k < 16; k++ {
			access(far)
			far += 1 << 20
		}
		if got := access(target); got != uint64(w) {
			t.Fatalf("%s %s access: EXE %d, want %d", cfg.Name, name, got, w)
		}
	}
	check("cold", want[0])
	check("warm", want[1])
	l1Stride := uint64(cfg.L1D.Size) / uint64(cfg.L1D.Assoc)
	for k := uint64(1); k <= uint64(cfg.L1D.Assoc); k++ {
		access(target + k*l1Stride)
	}
	check("L1D-evicted", want[2])
	l2Stride := uint64(cfg.L2.Size) / uint64(cfg.L2.Assoc)
	for k := uint64(1); k <= 16; k++ {
		access(target + k*l2Stride)
	}
	check("L2-evicted", want[3])
}

// TestRetireHierarchyWalk: on Itanium 2 a cold access misses every level
// and pays memory latency, a warm one hits L1D, and after evictions the
// line is serviced by L2, then by L3, at those levels' latencies.
func TestRetireHierarchyWalk(t *testing.T) {
	lat := Itanium2().Lat
	checkHierarchyWalk(t, Itanium2(), [4]int{lat.Memory, 0, lat.L2Hit, lat.L3Hit})
}

// TestRetireHierarchyWalkNoL3: on Pentium 4, which has no L3, an L2 miss
// goes to memory.
func TestRetireHierarchyWalkNoL3(t *testing.T) {
	lat := PentiumIV().Lat
	checkHierarchyWalk(t, PentiumIV(), [4]int{lat.Memory, 0, lat.L2Hit, lat.Memory})
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
