package oltp

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

func smallConfig() Config {
	return Config{
		Clients:     8,
		Scale:       Scale{Warehouses: 8, Customers: 2000, StockItems: 8000, MaxOrders: 20000},
		ThinkCycles: 1500,
	}
}

func run(t *testing.T, cfg Config, insts uint64) (*Workload, *cpu.Core, *osim.Sched) {
	t.Helper()
	w := &Workload{cfg: cfg}
	core := cpu.New(cpu.Itanium2())
	space := addr.NewSpace()
	sched := osim.New(core, space, osim.DefaultConfig())
	w.Setup(sched, space, 11)
	sched.RunObserved(insts, nil)
	return w, core, sched
}

func TestTransactionsExecute(t *testing.T) {
	w, core, _ := run(t, smallConfig(), 600_000)
	if core.Counters().Insts < 600_000 {
		t.Fatalf("retired %d", core.Counters().Insts)
	}
	total := 0
	kinds := 0
	var agg [txKinds]int
	for _, c := range w.Clients {
		for k, n := range c.TxCounts {
			agg[k] += n
			total += n
		}
	}
	for _, n := range agg {
		if n > 0 {
			kinds++
		}
	}
	if total < 50 {
		t.Fatalf("only %d transactions completed", total)
	}
	if kinds < 4 {
		t.Fatalf("transaction mix too narrow: %v", agg)
	}
	// NewOrder + Payment dominate the mix.
	if agg[txNewOrder]+agg[txPayment] < total/2 {
		t.Fatalf("mix weights off: %v", agg)
	}
}

func TestOrdersGrow(t *testing.T) {
	w, _, _ := run(t, smallConfig(), 600_000)
	base := smallConfig().Scale.MaxOrders / 10
	if w.DB.Table("orders").File.NumRows() <= base {
		t.Fatal("no order rows inserted")
	}
}

func TestVoluntarySwitchingAndOSTime(t *testing.T) {
	_, _, sched := run(t, smallConfig(), 1_000_000)
	st := sched.Stats()
	if st.Voluntary == 0 || st.IOWaits == 0 {
		t.Fatalf("OLTP produced no voluntary switches/IO: %+v", st)
	}
	frac := st.OSFraction()
	if frac < 0.04 || frac > 0.40 {
		t.Fatalf("OS fraction %v outside OLTP band (~0.15 paper)", frac)
	}
}

func TestL3Dominance(t *testing.T) {
	// The defining ODB-C property (§5.1): EXE (data-miss) stalls are the
	// biggest CPI component, and total CPI is well above the base.
	w := &Workload{cfg: DefaultConfig()}
	cfg := cpu.Itanium2()
	core := cpu.New(cfg)
	space := addr.NewSpace()
	sched := osim.New(core, space, osim.DefaultConfig())
	w.Setup(sched, space, 11)
	var refs uint64
	sched.RunObserved(2_000_000, observeFunc(func(ev *cpu.BlockEvent) { refs += uint64(ev.NMem) }))
	ctr := core.Counters()
	work, fe, exe, other := ctr.Breakdown()
	if exe < work || exe < fe || exe < other {
		t.Fatalf("EXE not dominant: work=%.2f fe=%.2f exe=%.2f other=%.2f", work, fe, exe, other)
	}
	// Data references that all hit L3 or closer charge at most L3Hit
	// each; only misses to memory charge more.
	if l3 := refs * uint64(cfg.Lat.L3Hit); ctr.EXECycles <= l3 {
		t.Fatalf("EXE cycles %d, want above the all-L3-hit bound %d (%d references)", ctr.EXECycles, l3, refs)
	}
	if cpi := ctr.CPI(); cpi < 1.5 {
		t.Fatalf("OLTP CPI %v implausibly low", cpi)
	}
}

func TestLargeUniqueEIPFootprint(t *testing.T) {
	cfg := smallConfig()
	w := &Workload{cfg: cfg}
	core := cpu.New(cpu.Itanium2())
	space := addr.NewSpace()
	sched := osim.New(core, space, osim.DefaultConfig())
	w.Setup(sched, space, 11)
	unique := map[uint64]bool{}
	sched.RunObserved(1_500_000, observeFunc(func(ev *cpu.BlockEvent) { unique[ev.PC] = true }))
	if len(unique) < 5000 {
		t.Fatalf("OLTP touched only %d unique block EIPs", len(unique))
	}
}

func TestDeterminism(t *testing.T) {
	get := func() uint64 {
		_, core, _ := run(t, smallConfig(), 400_000)
		return core.Counters().Cycles
	}
	if a, b := get(), get(); a != b {
		t.Fatalf("nondeterministic OLTP: %d vs %d", a, b)
	}
}

func TestRegistered(t *testing.T) {
	f, ok := workload.Lookup("odb-c")
	if !ok {
		t.Fatal("odb-c not registered")
	}
	if f().Name() != "odb-c" {
		t.Fatal("wrong name")
	}
}
