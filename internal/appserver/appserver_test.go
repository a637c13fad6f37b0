package appserver

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/cpu"
	"repro/internal/osim"
	"repro/internal/workload"
)

// observeFunc adapts a callback to osim.Observer; it never skips.
type observeFunc func(*cpu.BlockEvent)

func (f observeFunc) AfterRetire(ev *cpu.BlockEvent) { f(ev) }
func (observeFunc) SkipUntil() uint64                { return 0 }

func run(t *testing.T, cfg Config, insts uint64) (*Workload, *cpu.Core, *osim.Sched, map[uint64]bool) {
	t.Helper()
	w := &Workload{cfg: cfg}
	core := cpu.New(cpu.Itanium2())
	space := addr.NewSpace()
	sched := osim.New(core, space, osim.DefaultConfig())
	w.Setup(sched, space, 5)
	unique := map[uint64]bool{}
	sched.RunObserved(insts, observeFunc(func(ev *cpu.BlockEvent) { unique[ev.PC] = true }))
	return w, core, sched, unique
}

func TestRequestsComplete(t *testing.T) {
	w, core, sched, _ := run(t, DefaultConfig(), 1_500_000)
	if core.Counters().Insts < 1_500_000 {
		t.Fatalf("retired %d", core.Counters().Insts)
	}
	if w.Requests < 20 {
		t.Fatalf("only %d requests", w.Requests)
	}
	if sched.Stats().IOWaits < uint64(w.Requests) {
		t.Fatalf("requests without backend/network waits: %d waits for %d requests",
			sched.Stats().IOWaits, w.Requests)
	}
}

func TestJITPromotionChangesCode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JITThreshold = 5
	w, _, _, unique := run(t, cfg, 2_000_000)
	if w.JITs == 0 {
		t.Fatal("no methods were JIT compiled")
	}
	// Jitted code must actually execute: addresses inside the jit arena.
	jitted := 0
	for pc := range unique {
		if w.jit.Region.Contains(pc) {
			jitted++
		}
	}
	if jitted == 0 {
		t.Fatal("no samples from the JIT arena")
	}
}

func TestGCHappens(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HeapBytes = 1 << 20 // tiny young gen: frequent GC
	w, _, _, unique := run(t, cfg, 1_500_000)
	if w.GCs == 0 {
		t.Fatal("no GC pauses")
	}
	sawGC := false
	for pc := range unique {
		if w.gcCode.Region.Contains(pc) {
			sawGC = true
			break
		}
	}
	if !sawGC {
		t.Fatal("GC code never sampled")
	}
}

func TestEXESubstantialButNotTotal(t *testing.T) {
	// Paper Figure 5: L3-miss stalls are 30-40% of SjAS CPI — big, but not
	// ODB-C-level dominance.
	_, core, _, _ := run(t, DefaultConfig(), 2_000_000)
	ctr := core.Counters()
	_, _, exe, _ := ctr.Breakdown()
	frac := exe / ctr.CPI()
	if frac < 0.2 || frac > 0.65 {
		t.Fatalf("EXE fraction %v outside SjAS band", frac)
	}
}

func TestLargeDynamicEIPFootprint(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JITThreshold = 10
	_, _, _, unique := run(t, cfg, 2_500_000)
	if len(unique) < 6000 {
		t.Fatalf("SjAS touched only %d unique EIPs", len(unique))
	}
}

func TestHighVoluntarySwitchRate(t *testing.T) {
	// SjAS switches roughly 2x as often as ODB-C (5000/s vs 2600/s).
	_, _, sched, _ := run(t, DefaultConfig(), 1_000_000)
	st := sched.Stats()
	if st.Voluntary < st.Involuntary {
		t.Fatalf("voluntary switches (%d) should dominate involuntary (%d)", st.Voluntary, st.Involuntary)
	}
}

func TestDeterminism(t *testing.T) {
	get := func() uint64 {
		_, core, _, _ := run(t, DefaultConfig(), 800_000)
		return core.Counters().Cycles
	}
	if a, b := get(), get(); a != b {
		t.Fatalf("nondeterministic: %d vs %d", a, b)
	}
}

func TestFinerSamplePeriod(t *testing.T) {
	if New().SamplePeriod() != workload.SamplePeriodFine {
		t.Fatal("SjAS must use the fine sampling period")
	}
	if _, ok := workload.Lookup("sjas"); !ok {
		t.Fatal("sjas not registered")
	}
}
