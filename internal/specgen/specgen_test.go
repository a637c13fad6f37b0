package specgen

import (
	"slices"
	"testing"

	"repro/internal/addr"
	"repro/internal/cpu"
	"repro/internal/osim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// observeFunc adapts a callback to osim.Observer; it never skips.
type observeFunc func(*cpu.BlockEvent)

func (f observeFunc) AfterRetire(ev *cpu.BlockEvent) { f(ev) }
func (observeFunc) SkipUntil() uint64                { return 0 }

func TestProfilesComplete(t *testing.T) {
	ps := Profiles()
	if len(ps) != 26 {
		t.Fatalf("%d profiles, want 26", len(ps))
	}
	seen := map[string]bool{}
	quadCount := map[string]int{}
	for _, p := range ps {
		if seen[p.Name] {
			t.Fatalf("duplicate profile %s", p.Name)
		}
		seen[p.Name] = true
		q, ok := TargetQuadrant[p.Name]
		if !ok {
			t.Fatalf("%s has no target quadrant", p.Name)
		}
		quadCount[q]++
		if len(p.Phases) == 0 {
			t.Fatalf("%s has no phases", p.Name)
		}
	}
	// The prose of the paper fixes the census: 13 / 3 / 7 / 3.
	if quadCount["Q-I"] != 13 || quadCount["Q-II"] != 3 || quadCount["Q-III"] != 7 || quadCount["Q-IV"] != 3 {
		t.Fatalf("quadrant census = %v", quadCount)
	}
}

func TestAllRegistered(t *testing.T) {
	for _, p := range Profiles() {
		f, ok := workload.Lookup("spec." + p.Name)
		if !ok {
			t.Fatalf("spec.%s not registered", p.Name)
		}
		if f().Name() != p.Name {
			t.Fatalf("factory name mismatch for %s", p.Name)
		}
	}
	if len(Names()) != 26 {
		t.Fatal("Names() incomplete")
	}
}

// byName returns the named benchmark analog.
func byName(t *testing.T, name string) *Workload {
	t.Helper()
	for _, p := range Profiles() {
		if p.Name == name {
			return New(p)
		}
	}
	t.Fatalf("unknown benchmark %q", name)
	return nil
}

// runBench executes an analog and returns per-interval CPI values.
func runBench(t *testing.T, name string, intervals int) []float64 {
	t.Helper()
	w := byName(t, name)
	core := cpu.New(cpu.Itanium2())
	space := addr.NewSpace()
	sched := osim.New(core, space, osim.DefaultConfig())
	w.Setup(sched, space, 7)

	const interval = 100_000
	var cpis []float64
	last := core.Counters()
	sched.RunObserved(uint64(intervals)*interval, observeFunc(func(ev *cpu.BlockEvent) {
		cur := core.Counters()
		if cur.Insts-last.Insts >= interval {
			cpis = append(cpis, cur.Sub(last).CPI())
			last = cur
		}
	}))
	return cpis
}

func TestSteadyBenchmarksHaveLowVariance(t *testing.T) {
	for _, name := range []string{"twolf", "mesa", "wupwise"} {
		cpis := runBench(t, name, 40)
		v := stats.Var(cpis[8:]) // skip warmup
		if v > 0.01 {
			t.Errorf("%s interval-CPI variance %.4f, want <= 0.01 (Q-I)", name, v)
		}
	}
}

func TestContrastBenchmarksHaveHighVariance(t *testing.T) {
	for _, name := range []string{"mcf", "art", "swim"} {
		cpis := runBench(t, name, 60)
		v := stats.Var(cpis[8:])
		if v <= 0.01 {
			t.Errorf("%s interval-CPI variance %.4f, want > 0.01 (Q-IV)", name, v)
		}
	}
}

func TestErraticBenchmarksHaveHighVariance(t *testing.T) {
	for _, name := range []string{"gcc", "gap", "equake"} {
		cpis := runBench(t, name, 60)
		v := stats.Var(cpis[8:])
		if v <= 0.01 {
			t.Errorf("%s interval-CPI variance %.4f, want > 0.01 (Q-III)", name, v)
		}
	}
}

func TestMcfPhasesAlternate(t *testing.T) {
	cpis := runBench(t, "mcf", 60)
	lo, hi := slices.Min(cpis[8:]), slices.Max(cpis[8:])
	if hi < 2*lo {
		t.Fatalf("mcf phases not contrasting: min=%.2f max=%.2f", lo, hi)
	}
}

func TestDaemonCausesOccasionalSwitches(t *testing.T) {
	w := byName(t, "crafty")
	core := cpu.New(cpu.Itanium2())
	space := addr.NewSpace()
	sched := osim.New(core, space, osim.DefaultConfig())
	w.Setup(sched, space, 7)
	sched.RunObserved(3_000_000, nil)
	st := sched.Stats()
	if st.ContextSwitches == 0 {
		t.Fatal("no context switches at all")
	}
	// SPEC's defining property: switches are rare and OS time is < 1-2%.
	if frac := st.OSFraction(); frac > 0.02 {
		t.Fatalf("SPEC OS fraction %v, want < 0.02", frac)
	}
}

func TestDeterminism(t *testing.T) {
	a := runBench(t, "gcc", 20)
	b := runBench(t, "gcc", 20)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("gcc nondeterministic at interval %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSmallUniqueEIPCount(t *testing.T) {
	// SPEC analogs must look like mcf's 646 unique EIPs, not like a server
	// workload's tens of thousands.
	w := byName(t, "mcf")
	core := cpu.New(cpu.Itanium2())
	space := addr.NewSpace()
	sched := osim.New(core, space, osim.DefaultConfig())
	w.Setup(sched, space, 7)
	unique := map[uint64]bool{}
	sched.RunObserved(2_000_000, observeFunc(func(ev *cpu.BlockEvent) {
		if !addr.IsKernel(ev.PC) {
			unique[ev.PC] = true
		}
	}))
	if len(unique) > 3000 {
		t.Fatalf("mcf analog touched %d unique EIPs, want few hundred", len(unique))
	}
}
