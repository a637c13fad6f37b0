// Package profiler implements the VTune-like sampling driver (§3.1): it
// interrupts the simulated machine every N retired instructions and
// records the EIP at the point of interruption together with the event
// counter totals (cycles, instructions, stall components).
//
// Like the paper's setup, the sampler observes the whole system — user and
// kernel EIPs of every thread — and tags each sample with the thread that
// produced it, which is what makes the §5.2 thread-separation experiment
// possible.
package profiler

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/addr"
	"repro/internal/cpu"
	"repro/internal/eiprank"
	"repro/internal/osim"
	"repro/internal/workload"
)

// Sample is one profiler interrupt record. Whether it hit kernel code is
// addr.IsKernel(EIP).
type Sample struct {
	EIP    uint64
	Thread int
	// Counters is the cumulative event-counter snapshot at the interrupt.
	Counters cpu.Counters
}

// Profile is a complete sampling run.
type Profile struct {
	Workload string
	Machine  string
	Period   uint64 // sampling period in instructions
	Samples  []Sample
}

// EIPIndex computes the profile's dense EIP index: the sorted unique
// sampled EIPs, and — parallel to Samples — each sample's position in that
// list. It ranks in one pass through an eiprank.Table: each sample gets
// the first-seen ID of its EIP, only the distinct EIPs are sorted, and one
// permutation turns first-seen IDs into ranks. Each call builds the index
// afresh; every analysis indexes a profile once.
func (p *Profile) EIPIndex() (eips []uint64, ranks []int32) {
	samples := p.Samples
	// Sized for one distinct EIP per eight samples: a table sized for
	// every sample spreads its probes over far more memory than the
	// distinct EIPs need.
	var ids eiprank.Table
	ids.Init(len(samples) / 8)
	ranks = make([]int32, len(samples))
	for i := range samples {
		ranks[i] = ids.ID(samples[i].EIP)
	}
	eips, perm := ids.Ranks()
	for i, r := range ranks {
		ranks[i] = perm[r]
	}
	return eips, ranks
}

// After returns the profile from the first sample taken at or beyond the
// given retired-instruction count (steady-state trimming). Retired
// instructions never decrease along a profile, so that is a suffix: the
// returned profile shares p's samples rather than copying them.
func (p *Profile) After(insts uint64) *Profile {
	i := sort.Search(len(p.Samples), func(i int) bool { return p.Samples[i].Counters.Insts >= insts })
	return &Profile{Workload: p.Workload, Machine: p.Machine, Period: p.Period, Samples: p.Samples[i:]}
}

// Sampler hooks the scheduler's retirement stream.
type Sampler struct {
	core   *cpu.Core
	period uint64
	nextAt uint64
	prof   *Profile
}

// New creates a sampler over core with the given period (instructions per
// sample). It panics if period is zero.
func New(core *cpu.Core, period uint64) *Sampler {
	if period == 0 {
		panic("profiler: zero sampling period")
	}
	return &Sampler{
		core:   core,
		period: period,
		nextAt: period,
		prof:   &Profile{Period: period, Machine: core.Config().Name},
	}
}

// Reserve pre-sizes the sample slice for a run of totalInsts
// instructions, so a long collection appends without regrowing (the
// sample stream is the bulk of a run's heap traffic).
func (s *Sampler) Reserve(totalInsts uint64) {
	if need := int(totalInsts/s.period) + 2; cap(s.prof.Samples) < need {
		samples := make([]Sample, len(s.prof.Samples), need)
		copy(samples, s.prof.Samples)
		s.prof.Samples = samples
	}
}

// Observe is the scheduler's per-retirement hook: when the retired
// instruction count crosses a sampling boundary, the current block's EIP
// is recorded with the counter totals. The cheap Insts read up front keeps
// the between-samples case free of the full counter-block copy.
func (s *Sampler) Observe(ev *cpu.BlockEvent) {
	if s.core.Insts() < s.nextAt {
		return
	}
	ctr := s.core.Counters()
	for ctr.Insts >= s.nextAt {
		s.prof.Samples = append(s.prof.Samples, Sample{
			EIP:      ev.PC,
			Thread:   int(ev.Thread),
			Counters: ctr,
		})
		s.nextAt += s.period
	}
}

// AfterRetire implements osim.Observer.
func (s *Sampler) AfterRetire(ev *cpu.BlockEvent) { s.Observe(ev) }

// SkipUntil implements osim.Observer: Observe is a no-op until the retired
// count reaches the next sampling point, so the scheduler's batched path
// may elide calls below it.
func (s *Sampler) SkipUntil() uint64 { return s.nextAt }

// Profile returns the collected profile.
func (s *Sampler) Profile() *Profile { return s.prof }

// CollectOptions parameterize a collection run.
type CollectOptions struct {
	// Ctx, if non-nil, cancels the simulation: the scheduler polls it once
	// per time slice and Collect returns Ctx.Err() instead of a partial
	// profile. A nil Ctx (the default) never cancels, so batch callers are
	// unaffected.
	Ctx context.Context

	Machine cpu.Config
	Seed    uint64
	// Intervals is the run length in EIPV intervals of workload.IntervalInsts.
	Intervals int
	// PeriodOverride, if nonzero, replaces the workload's preferred
	// sampling period (used by the §7.1 sensitivity sweeps).
	PeriodOverride uint64
	// BuildBBV additionally collects *full* basic-block vectors: exact
	// per-interval execution counts of every block, the information
	// SimPoint-style tools get from full code instrumentation. The paper
	// could not collect these on its production systems (§3.3, "a direct
	// comparison with BBVs is beyond the scope of this paper"); the
	// simulator sees every retirement, so the comparison the paper defers
	// becomes possible here.
	BuildBBV bool
	// BBVIntervalInsts sizes BBV intervals (0 = workload.IntervalInsts).
	BBVIntervalInsts uint64
	// TraceWorkers enables lookahead trace generation for threads whose
	// runners are trace-independent (workload.NewIndependentRunner),
	// bounded to this many concurrent producer goroutines. 0 (the
	// default) generates every trace inline. The collected profile is
	// byte-identical at every setting — lookahead changes wall-clock
	// time, never output — so TraceWorkers is deliberately excluded from
	// profile-store keys.
	TraceWorkers int
}

// CollectResult bundles everything a collection run produces.
type CollectResult struct {
	Profile  *Profile
	Counters cpu.Counters
	OS       osim.Stats
	Seconds  float64 // modeled wall-clock duration
	// Space is the simulated address space the run was built in; it maps
	// sampled EIPs back to named code regions (symbolization).
	Space *addr.Space
	// BBV holds the full basic-block vectors when CollectOptions.BuildBBV
	// was set: one vector of exact block execution counts per interval,
	// with the interval's exact CPI.
	BBV []BlockVector
	// MemRefsDropped counts memory references the workload models tried to
	// attach beyond cpu.MaxMemRefs per block; nonzero means the collected
	// cache behavior under-represents the model's intent.
	MemRefsDropped uint64
}

// BlockVector is one interval's exact code-execution histogram in the
// row form rtree.IndexRows takes: block PCs strictly ascending, with
// parallel execution counts.
type BlockVector struct {
	Index  int
	PCs    []uint64
	Counts []int64
	CPI    float64 // exact interval CPI from counter deltas
}

// bbvBuilder accumulates full block vectors from the retirement stream.
// Per-block counts are a dense slice indexed by the event's interned block
// id — no hashing on the per-retirement path — with a touched-list so the
// per-interval reset is proportional to the blocks actually executed. Each
// id is validated against the event's PC; since distinct blocks have
// distinct ids, agreement proves the id is the right one.
type bbvBuilder struct {
	core     *cpu.Core
	interval uint64
	idPC     []uint64 // interned id -> block PC (validation and flush)
	counts   []int32  // executions this interval, indexed by block id
	touched  []int32  // ids with nonzero counts
	last     cpu.Counters
	out      []BlockVector
}

func newBBVBuilder(core *cpu.Core, space *addr.Space, interval uint64) *bbvBuilder {
	idPC := space.BlockPCs()
	return &bbvBuilder{
		core:     core,
		interval: interval,
		idPC:     idPC,
		counts:   make([]int32, len(idPC)),
	}
}

func (b *bbvBuilder) observe(ev *cpu.BlockEvent) {
	id := ev.ID
	if int(id) >= len(b.idPC) || b.idPC[id] != ev.PC {
		panic(fmt.Sprintf("profiler: block id %d does not intern PC %#x", id, ev.PC))
	}
	if b.counts[id] == 0 {
		b.touched = append(b.touched, id)
	}
	b.counts[id]++
	if b.core.Insts()-b.last.Insts >= b.interval {
		ctr := b.core.Counters()
		b.flush(ctr.Sub(b.last).CPI())
		b.last = ctr
	}
}

// flush appends the interval's row and sparse-resets the accumulator.
// Ids are not in PC order across regions, so the touched ids are sorted
// by PC, once per interval.
func (b *bbvBuilder) flush(cpi float64) {
	slices.SortFunc(b.touched, func(x, y int32) int { return cmp.Compare(b.idPC[x], b.idPC[y]) })
	n := len(b.touched)
	v := BlockVector{Index: len(b.out), PCs: make([]uint64, n), Counts: make([]int64, n), CPI: cpi}
	for i, id := range b.touched {
		v.PCs[i], v.Counts[i] = b.idPC[id], int64(b.counts[id])
		b.counts[id] = 0
	}
	b.touched = b.touched[:0]
	b.out = append(b.out, v)
}

// sampledObserver feeds both the sampler and the BBV builder. The BBV
// side needs every retirement, so it never lets the scheduler skip.
type sampledObserver struct {
	s   *Sampler
	bbv *bbvBuilder
}

func (o *sampledObserver) AfterRetire(ev *cpu.BlockEvent) {
	o.s.Observe(ev)
	o.bbv.observe(ev)
}

func (o *sampledObserver) SkipUntil() uint64 { return 0 }

// memRefsDroppedTotal accumulates MemRefsDropped over every collection in
// the process (the -cachestats / metrics surface for truncation).
var memRefsDroppedTotal atomic.Uint64

// MemRefsDroppedTotal reports how many memory references were dropped by
// cpu.BlockEvent.AddMem across all collections this process has run.
func MemRefsDroppedTotal() uint64 { return memRefsDroppedTotal.Load() }

// Collect runs the named workload against a fresh simulated machine and
// returns its profile. It is the one-call entry point the experiments and
// public API use.
func Collect(w workload.Workload, opt CollectOptions) (*CollectResult, error) {
	if opt.Intervals <= 0 {
		return nil, fmt.Errorf("profiler: Intervals must be positive, got %d", opt.Intervals)
	}
	// Honor cancellation before doing any work, during workload setup and
	// after it: building a DSS database or an OLTP heap is real time before
	// the scheduler's per-slice poll runs, so the builders poll the same
	// stop function (Sched.Stopped) between tables and indexes, and the
	// DSS builder also every few thousand rows inside its long fills and
	// index builds.
	if err := ctxErr(opt.Ctx); err != nil {
		return nil, err
	}
	machine := opt.Machine
	if machine.Name == "" {
		machine = cpu.Itanium2()
	}
	core := cpu.New(machine)
	space := addr.NewSpace()
	sched := osim.New(core, space, osim.DefaultConfig())
	sched.SetTraceWorkers(opt.TraceWorkers)
	if opt.Ctx != nil {
		sched.SetStop(func() bool { return opt.Ctx.Err() != nil })
	}
	w.Setup(sched, space, opt.Seed)
	if err := ctxErr(opt.Ctx); err != nil {
		return nil, err
	}

	period := w.SamplePeriod()
	if opt.PeriodOverride != 0 {
		period = opt.PeriodOverride
	}
	s := New(core, period)
	s.prof.Workload = w.Name()

	var obs osim.Observer = s
	var bbv *bbvBuilder
	if opt.BuildBBV {
		ii := opt.BBVIntervalInsts
		if ii == 0 {
			ii = workload.IntervalInsts
		}
		bbv = newBBVBuilder(core, space, ii)
		obs = &sampledObserver{s: s, bbv: bbv}
	}

	maxInsts := uint64(opt.Intervals) * workload.IntervalInsts
	s.Reserve(maxInsts)
	osStats := sched.RunObserved(maxInsts, obs)
	if opt.Ctx != nil && opt.Ctx.Err() != nil {
		return nil, opt.Ctx.Err()
	}
	res := &CollectResult{
		Profile:  s.Profile(),
		Counters: core.Counters(),
		OS:       osStats,
		Seconds:  workload.Seconds(sched.Now()),
		// The returned Space is rebuilt from the region list alone, exactly
		// as a store decode rebuilds it: block-interning state is
		// collection-time scaffolding and must not distinguish a live
		// result from a round-tripped one.
		Space:          addr.SpaceFromRegions(space.Regions()),
		MemRefsDropped: core.MemRefsDropped(),
	}
	memRefsDroppedTotal.Add(res.MemRefsDropped)
	if bbv != nil {
		res.BBV = bbv.out
	}
	return res, nil
}

// ctxErr returns ctx.Err() tolerating the nil contexts batch callers pass.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// CollectByName looks the workload up in the registry and collects it.
func CollectByName(name string, opt CollectOptions) (*CollectResult, error) {
	f, ok := workload.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("profiler: unknown workload %q", name)
	}
	return Collect(f(), opt)
}
