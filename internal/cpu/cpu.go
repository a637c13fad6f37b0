// Package cpu implements the trace-driven, cycle-approximate processor
// model that stands in for the paper's Itanium 2 hardware.
//
// Workloads describe execution as a stream of basic-block retirement
// events. For each block the core charges cycles into the same four
// components the paper's performance counters measure (§5.1):
//
//   - WORK:  base execution cycles (instructions x the block's inherent CPI)
//   - FE:    front-end stalls — instruction-cache misses and branch
//     mispredictions
//   - EXE:   data-cache miss stalls (L2/L3/memory service latency; on this
//     machine, dominated by L3 misses, exactly as in the paper)
//   - OTHER: remaining backend stalls (dependency/scoreboard stalls,
//     supplied per block by the workload model)
//
// CPI is total cycles / retired instructions. The model is in-order and
// stall-on-miss: every miss charges its full service latency. That is a
// deliberate simplification — the paper's analysis consumes only the
// counter values, and an in-order Itanium 2 is itself close to
// stall-on-use.
package cpu

import (
	"fmt"
	"strings"

	"repro/internal/branch"
	"repro/internal/cache"
)

// MaxMemRefs is the maximum number of memory references a single block
// event can carry. Workloads emit more blocks rather than wider ones.
const MaxMemRefs = 4

// BlockEvent describes the retirement of one basic block.
//
// Events are passed by pointer and reused by callers; the core does not
// retain them.
// The layout is deliberately compact (72 bytes): every block retirement
// is staged through an event buffer, so the struct's size is copy traffic
// in the hottest loop of a collection.
type BlockEvent struct {
	PC uint64 // EIP identifying the block (sampled by the profiler)

	// BaseCPI is the block's inherent cycles-per-instruction assuming all
	// cache hits and correct prediction (the WORK component). Wide in-order
	// issue gives values well below 1 for ILP-rich code.
	BaseCPI float64

	// Mem holds the byte addresses of the block's representative data
	// references. Loads and stores are not told apart: the caches model
	// both as write-allocate accesses with no write-back traffic.
	Mem [MaxMemRefs]uint64

	Thread int32 // simulated thread id (tagged onto profiler samples)
	Insts  int32 // instructions retired by this block; must be > 0

	// ExtraStall is charged to OTHER (cycles): dependency chains, FP
	// latencies, and similar backend effects the block model knows about.
	ExtraStall int32

	// ID is the block's dense interned id (addr.Space assigns one id per
	// 64 bytes of every code region, in allocation order). It rides along
	// with the PC so per-block accumulators can index slices instead of
	// hashing 64-bit PCs. Events emitted outside interned regions leave it
	// zero; only BBV collection requires it, and it is validated against
	// the PC there.
	ID int32

	NMem uint8 // count of live Mem entries

	// HasBranch marks a conditional branch terminating the block, with its
	// actual direction.
	HasBranch bool
	Taken     bool

	// DroppedMem counts memory references AddMem discarded because the
	// event already carried MaxMemRefs (saturating at 255).
	DroppedMem uint8
}

// Reset clears an event for reuse.
func (ev *BlockEvent) Reset() { *ev = BlockEvent{} }

// AddMem appends a memory reference; extra references beyond MaxMemRefs are
// dropped and counted in DroppedMem (callers should emit more blocks
// instead — the core surfaces the drop totals so truncation is visible).
func (ev *BlockEvent) AddMem(addr uint64) {
	if ev.NMem < MaxMemRefs {
		ev.Mem[ev.NMem] = addr
		ev.NMem++
	} else if ev.DroppedMem < 255 {
		ev.DroppedMem++
	}
}

// Counters is a cumulative snapshot of the core's counters: the
// instruction, cycle and stall-component totals the paper's profiler
// records at each interrupt (§3.1), and all that its analysis reads.
type Counters struct {
	Insts  uint64 // retired instructions
	Cycles uint64 // total cycles

	WorkCycles  uint64
	FECycles    uint64
	EXECycles   uint64
	OtherCycles uint64
}

// Sub returns c - o, the counter deltas over an interval.
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		Insts:       c.Insts - o.Insts,
		Cycles:      c.Cycles - o.Cycles,
		WorkCycles:  c.WorkCycles - o.WorkCycles,
		FECycles:    c.FECycles - o.FECycles,
		EXECycles:   c.EXECycles - o.EXECycles,
		OtherCycles: c.OtherCycles - o.OtherCycles,
	}
}

// CPI returns Cycles/Insts, or 0 when no instructions retired.
func (c Counters) CPI() float64 {
	if c.Insts == 0 {
		return 0
	}
	return float64(c.Cycles) / float64(c.Insts)
}

// Breakdown returns the per-instruction cost of each CPI component
// (work, fe, exe, other), which sum to CPI().
func (c Counters) Breakdown() (work, fe, exe, other float64) {
	if c.Insts == 0 {
		return 0, 0, 0, 0
	}
	n := float64(c.Insts)
	return float64(c.WorkCycles) / n, float64(c.FECycles) / n,
		float64(c.EXECycles) / n, float64(c.OtherCycles) / n
}

// Latencies gives the service latency (cycles) of each hierarchy level.
type Latencies struct {
	L2Hit  int // extra cycles when L1 misses and L2 hits
	L3Hit  int // extra cycles when L2 misses and L3 hits
	Memory int // extra cycles on a full miss
}

// Config describes a machine. The three stock configurations below mirror
// the systems in the paper (§2.2, §7.1) at the level of detail the results
// depend on.
type Config struct {
	Name string

	L1I, L1D, L2 cache.Config
	L3           *cache.Config // nil = machine without an L3 (Pentium 4)

	Lat Latencies

	MispredictPenalty int

	// PredictorBits sizes the gshare predictor (2^bits entries).
	PredictorBits int

	// IFetchFactor scales the FE charge of instruction-cache misses,
	// modeling the front end's sequential prefetching and fetch-ahead
	// (misses overlap with execution instead of fully stalling it).
	// Zero means 1.0 (no overlap).
	IFetchFactor float64
}

// Itanium2 models the paper's primary system: 4x900MHz Itanium 2 with a
// split L1, 256KB L2 and 3MB L3 (§2.2). Wide in-order issue, shallow
// pipeline, large L3, slow memory relative to core width.
func Itanium2() Config {
	return Config{
		Name: "itanium2",
		L1I:  cache.Config{Name: "L1I", Size: 16 << 10, LineSize: 64, Assoc: 4},
		L1D:  cache.Config{Name: "L1D", Size: 16 << 10, LineSize: 64, Assoc: 4},
		L2:   cache.Config{Name: "L2", Size: 256 << 10, LineSize: 128, Assoc: 8},
		L3:   &cache.Config{Name: "L3", Size: 3 << 20, LineSize: 128, Assoc: 12},
		Lat: Latencies{
			L2Hit:  5,
			L3Hit:  14,
			Memory: 150,
		},
		MispredictPenalty: 6,
		PredictorBits:     14,
		IFetchFactor:      0.25,
	}
}

// PentiumIV models the paper's 2.3GHz Pentium 4 cross-check machine
// (§7.1): no L3, deep pipeline (expensive mispredictions), and memory that
// is far away in core cycles.
func PentiumIV() Config {
	return Config{
		Name: "pentium4",
		L1I:  cache.Config{Name: "L1I", Size: 16 << 10, LineSize: 64, Assoc: 4},
		L1D:  cache.Config{Name: "L1D", Size: 16 << 10, LineSize: 64, Assoc: 4},
		L2:   cache.Config{Name: "L2", Size: 512 << 10, LineSize: 64, Assoc: 8},
		L3:   nil,
		Lat: Latencies{
			L2Hit:  7,
			L3Hit:  0,
			Memory: 320,
		},
		MispredictPenalty: 25,
		PredictorBits:     14,
		IFetchFactor:      0.35,
	}
}

// Xeon models the paper's 2.0GHz Xeon MP cross-check machine (§7.1): P4
// microarchitecture plus a modest L3.
func Xeon() Config {
	return Config{
		Name: "xeon",
		L1I:  cache.Config{Name: "L1I", Size: 16 << 10, LineSize: 64, Assoc: 4},
		L1D:  cache.Config{Name: "L1D", Size: 16 << 10, LineSize: 64, Assoc: 4},
		L2:   cache.Config{Name: "L2", Size: 512 << 10, LineSize: 64, Assoc: 8},
		L3:   &cache.Config{Name: "L3", Size: 1 << 20, LineSize: 64, Assoc: 8},
		Lat: Latencies{
			L2Hit:  7,
			L3Hit:  20,
			Memory: 280,
		},
		MispredictPenalty: 20,
		PredictorBits:     14,
		IFetchFactor:      0.35,
	}
}

// Canonical renders the configuration as a stable, field-by-field string:
// two Configs produce the same canonical form iff every field the simulator
// reads is equal (the optional L3 is dereferenced). It is the machine part
// of every cache and profile-store key, so hand-built Configs key correctly,
// not just the named presets — and so any change to the machine model
// changes the key and can never alias a stale cached profile.
func (c Config) Canonical() string {
	var b strings.Builder
	fmt.Fprintf(&b, "m=%s{%+v;%+v;%+v;l3=", c.Name, c.L1I, c.L1D, c.L2)
	if c.L3 != nil {
		fmt.Fprintf(&b, "%+v", *c.L3)
	} else {
		b.WriteString("nil")
	}
	fmt.Fprintf(&b, ";lat=%+v;mp=%d;pb=%d;iff=%g}",
		c.Lat, c.MispredictPenalty, c.PredictorBits, c.IFetchFactor)
	return b.String()
}

// ConfigByName returns one of the stock configurations.
func ConfigByName(name string) (Config, error) {
	switch name {
	case "itanium2":
		return Itanium2(), nil
	case "pentium4":
		return PentiumIV(), nil
	case "xeon":
		return Xeon(), nil
	}
	return Config{}, fmt.Errorf("cpu: unknown machine config %q", name)
}

// Core is the processor model. It is not safe for concurrent use; the
// simulated-thread interleaving is the scheduler's job, and the core sees a
// single serialized retirement stream (as the physical CPU would).
type Core struct {
	cfg  Config
	pred *branch.Gshare
	ctr  Counters

	// The cache hierarchy: split L1 instruction and data caches, a unified
	// L2 and an optional unified L3. Retire walks it in that order.
	l1i, l1d, l2, l3 *cache.Cache // l3 is nil on no-L3 machines

	// Retirement fast-path state, precomputed at New: the per-level FE/EXE
	// cycle charges, so Retire does no float math or config loads per
	// event.
	feL2, feL3, feMem    uint64 // FE charge per L1I-miss service level
	latL2, latL3, latMem uint64 // EXE charge per data service level
	mp                   uint64 // misprediction penalty

	// dropped accumulates BlockEvent.DroppedMem over all retired events.
	dropped uint64

	// Sequential stream prefetcher state: recently seen data lines; an
	// access to line s+1 after line s is considered prefetched and is
	// serviced at L2 latency even if the hierarchy missed. Real machines
	// of the paper's era (Itanium 2, P4, Xeon) all had hardware stream
	// prefetchers, and without one the sequential scans that define the
	// DSS workloads would cost like random access.
	streams   [16]uint64
	streamIdx int
}

// prefetchLine is the prefetcher's tracking granularity (the L2/L3 line).
const prefetchLineBits = 7

// prefetched reports whether the line continues a tracked stream,
// updating the tracker either way.
func (c *Core) prefetched(addr uint64) bool {
	line := addr >> prefetchLineBits
	for i := range c.streams {
		if s := c.streams[i]; line == s+1 || line == s {
			c.streams[i] = line
			return true
		}
	}
	c.streams[c.streamIdx] = line
	c.streamIdx = (c.streamIdx + 1) & 15
	return false
}

// New builds a core for the given machine configuration.
func New(cfg Config) *Core {
	bits := cfg.PredictorBits
	if bits == 0 {
		bits = 14
	}
	f := cfg.IFetchFactor
	if f == 0 {
		f = 1
	}
	c := &Core{
		cfg:  cfg,
		pred: branch.NewGshare(bits),
		l1i:  cache.New(cfg.L1I),
		l1d:  cache.New(cfg.L1D),
		l2:   cache.New(cfg.L2),
	}
	if cfg.L3 != nil {
		c.l3 = cache.New(*cfg.L3)
	}
	c.feL2 = feCharge(cfg.Lat.L2Hit, f)
	c.feL3 = feCharge(cfg.Lat.L3Hit, f)
	c.feMem = feCharge(cfg.Lat.Memory, f)
	c.latL2 = uint64(cfg.Lat.L2Hit)
	c.latL3 = uint64(cfg.Lat.L3Hit)
	c.latMem = uint64(cfg.Lat.Memory)
	c.mp = uint64(cfg.MispredictPenalty)
	return c
}

// feCharge is the front-end stall charged for an instruction miss serviced
// at a level with the given latency, discounted by the fetch-ahead factor
// (zero latency charges nothing; a nonzero latency charges at least 1).
func feCharge(lat int, f float64) uint64 {
	if lat <= 0 {
		return 0
	}
	charged := uint64(float64(lat)*f + 0.5)
	if charged == 0 {
		charged = 1
	}
	return charged
}

// Config returns the machine configuration.
func (c *Core) Config() Config { return c.cfg }

// Counters returns the cumulative counter snapshot.
func (c *Core) Counters() Counters { return c.ctr }

// Insts returns the retired-instruction count alone. The scheduler's
// budget and the sampler's period check run on every retirement; this
// avoids copying the full counter block just to read one field.
func (c *Core) Insts() uint64 { return c.ctr.Insts }

// Cycles returns the total cycle count alone (see Insts).
func (c *Core) Cycles() uint64 { return c.ctr.Cycles }

// MemRefsDropped returns how many memory references BlockEvent.AddMem
// discarded (beyond MaxMemRefs) across all events retired so far.
func (c *Core) MemRefsDropped() uint64 { return c.dropped }

// Retire executes one block event, charging cycles into the CPI components.
// It panics if ev.Insts <= 0 (a malformed workload model).
func (c *Core) Retire(ev *BlockEvent) {
	if ev.Insts <= 0 {
		panic("cpu: Retire with non-positive instruction count")
	}
	c.ctr.Insts += uint64(ev.Insts)
	c.dropped += uint64(ev.DroppedMem)

	// WORK: inherent execution cost.
	work := uint64(float64(ev.Insts)*ev.BaseCPI + 0.5)
	if work == 0 {
		work = 1
	}
	c.ctr.WorkCycles += work

	// FE: instruction fetch, discounted by front-end fetch-ahead overlap.
	// The hierarchy walk (L1I, L2, then L3 when present) is inlined with
	// the L1I hit (no charge) first and the per-level charges precomputed.
	var fe uint64
	if !c.l1i.Access(ev.PC) {
		if c.l2.Access(ev.PC) {
			fe = c.feL2
		} else if c.l3 != nil && c.l3.Access(ev.PC) {
			fe = c.feL3
		} else {
			fe = c.feMem
		}
	}

	// FE: branch prediction.
	if ev.HasBranch && c.pred.Apply(ev.PC, ev.Taken) {
		fe += c.mp
	}
	c.ctr.FECycles += fe

	// EXE: data-side stalls, walking L1D, L2, then L3 when present. Misses
	// past L2 that continue a sequential stream are serviced at L2 latency
	// by the prefetcher, whose state is only touched for those misses.
	var exe uint64
	for _, a := range ev.Mem[:ev.NMem] {
		if c.l1d.Access(a) {
			continue
		}
		if c.l2.Access(a) {
			exe += c.latL2
			continue
		}
		toMemory := c.l3 == nil || !c.l3.Access(a)
		switch {
		case c.prefetched(a):
			exe += c.latL2
		case toMemory:
			exe += c.latMem
		default:
			exe += c.latL3
		}
	}
	c.ctr.EXECycles += exe

	// OTHER: workload-supplied backend stalls.
	other := uint64(ev.ExtraStall)
	c.ctr.OtherCycles += other

	c.ctr.Cycles += work + fe + exe + other
}

// RetireBatch retires a run of block events with no per-event observation
// — the scheduler's batched fast path between sampling boundaries. It is
// exactly equivalent to calling Retire on each event in order.
func (c *Core) RetireBatch(evs []BlockEvent) {
	for i := range evs {
		c.Retire(&evs[i])
	}
}

// ContextSwitch models the microarchitectural cost of a context switch:
// partial cache pollution. The interloper's footprint displaces the given
// fraction of the L1s but proportionally far less of the large caches (a
// scheduling path touches kilobytes, not megabytes). The kernel's
// scheduling code itself is emitted by the OS model as ordinary (kernel)
// block events.
func (c *Core) ContextSwitch(cachePollution float64) {
	c.l1i.FlushFraction(cachePollution)
	c.l1d.FlushFraction(cachePollution)
	c.l2.FlushFraction(cachePollution / 4)
	if c.l3 != nil {
		c.l3.FlushFraction(cachePollution / 16)
	}
}
