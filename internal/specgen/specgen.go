// Package specgen generates the 26 SPEC CPU2K benchmark analogs.
//
// The paper uses SPEC only as points in the (CPI variance, CPI-from-EIP
// predictability) plane, so each analog is a small synthetic program
// described by a *phase graph*: loop nests with a code footprint, a data
// working set and access pattern, branch behaviour, and an inherent CPI.
// The generator executes the graph for real against the simulated machine;
// quadrant placement emerges from the phase structure:
//
//   - homogeneous programs (one steady phase) have almost no CPI variance
//     — quadrant Q-I regardless of code behaviour;
//   - cyclic programs with contrasting phases have code-correlated CPI —
//     Q-II when the contrast is subtle, Q-IV when it is large (mcf, art,
//     swim);
//   - programs whose data behaviour drifts *within unchanged code* (gcc's
//     input-dependent branching, gap's pointer churn) have CPI variance
//     that EIPs cannot explain — Q-III.
//
// Per-benchmark profiles are calibrated by these behavioural knobs only;
// the classification pipeline measures the analogs exactly as it measures
// the server workloads.
package specgen

import (
	"fmt"
	"sort"

	"repro/internal/addr"
	"repro/internal/osim"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// AccessPattern is a phase's data reference pattern.
type AccessPattern int

// Data access patterns.
const (
	// Stream walks the working set sequentially (prefetch-friendly).
	Stream AccessPattern = iota
	// RandomWS references uniformly within the working set.
	RandomWS
	// PointerChase references randomly with serialized dependent loads
	// (extra stall per miss, mcf-style).
	PointerChase
	// DriftWS references randomly within a window that random-walks
	// across a much larger space — nonstationary locality with no code
	// change (the Q-III mechanism).
	DriftWS
)

// Phase is one loop nest of a synthetic program.
type Phase struct {
	Name       string
	Blocks     int     // code footprint (distinct 64B blocks)
	Loopy      bool    // sequential block walk (true) vs wandering (false)
	BaseCPI    float64 // inherent CPI
	WorkingSet uint64  // bytes
	Pattern    AccessPattern
	RefsPer4   int     // memory refs per 4 blocks (0..4)
	BranchRand float64 // fraction of unpredictable branch outcomes
	// BranchDrift makes BranchRand itself wander ±BranchDrift on a slow
	// random walk (gcc's input-dependent mispredict bursts).
	BranchDrift float64
	// Insts is the phase length in instructions per visit.
	Insts uint64
}

// Profile is a complete benchmark description.
type Profile struct {
	Name   string
	Phases []Phase
	// Jitter is the relative variation of phase lengths between visits.
	Jitter float64
	// ILPNoise adds slow drift to the phases' effective BaseCPI without
	// changing code (data-value-dependent execution cost).
	ILPNoise float64
}

// Workload executes a profile as a single simulated thread (plus the
// background daemon thread that gives SPEC its ~25 switches/s).
type Workload struct {
	prof Profile
}

// New returns the analog for the given profile.
func New(prof Profile) *Workload { return &Workload{prof: prof} }

// Name implements workload.Workload.
func (w *Workload) Name() string { return w.prof.Name }

// SamplePeriod implements workload.Workload.
func (w *Workload) SamplePeriod() uint64 { return workload.SamplePeriod }

// Setup implements workload.Workload.
func (w *Workload) Setup(sched *osim.Sched, space *addr.Space, seed uint64) {
	rng := xrand.New(seed ^ hashName(w.prof.Name))
	g := &gen{prof: w.prof, rng: rng}
	for i, ph := range w.prof.Phases {
		g.code = append(g.code, workload.NewCodeRegion(space,
			fmt.Sprintf("%s.phase%d", w.prof.Name, i), ph.Blocks))
		size := ph.WorkingSet
		if ph.Pattern == DriftWS {
			size *= 16 // the drift space is much larger than the window
		}
		g.data = append(g.data, space.AllocData(fmt.Sprintf("%s.data%d", w.prof.Name, i), size))
	}
	// The phase-graph generator touches only its own regions and RNG, so
	// its trace can be generated ahead of retirement.
	sched.Add(workload.NewIndependentRunner(g))

	// Background daemon: briefly wakes a few hundred times per simulated
	// second, reproducing SPEC's low but nonzero context-switch rate.
	daemonCode := workload.NewCodeRegion(space, w.prof.Name+".daemon", 64)
	drng := rng.Split(0xdae)
	sched.Add(workload.NewIndependentRunner(workload.GenFunc(func(e *workload.Emitter) {
		for i := 0; i < 6; i++ {
			e.EmitBlock(daemonCode.SeqPC(), 12, 0.8)
		}
		e.Wait(uint64(drng.Exp(3.5e6)) + 1)
	})))
}

func hashName(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// gen executes the phase graph.
type gen struct {
	prof Profile
	rng  *xrand.Rand
	code []*workload.CodeRegion
	data []addr.Region

	phase     int
	remaining uint64 // instructions left in the current phase visit

	driftPos  float64 // DriftWS window position in [0,1)
	streamPos uint64  // Stream cursor (lines)
	branchAdj float64 // BranchDrift state
	ilpAdj    float64 // ILPNoise state

}

// Burst implements workload.Gen: a slice of the current phase.
func (g *gen) Burst(e *workload.Emitter) {
	if g.remaining == 0 {
		g.enterNextPhase()
	}
	ph := &g.prof.Phases[g.phase]
	code := g.code[g.phase]
	data := g.data[g.phase]

	const blockInsts = 12
	for n := 0; n < 64 && g.remaining > 0; n++ {
		ev := e.Alloc()
		if ph.Loopy {
			code.SeqPC().Assign(ev)
		} else {
			code.NextPC().Assign(ev)
		}
		ev.Insts = blockInsts
		ev.BaseCPI = ph.BaseCPI * (1 + g.ilpAdj)
		if ev.BaseCPI < 0.25 {
			ev.BaseCPI = 0.25
		}
		if ph.RefsPer4 > 0 && n%4 < ph.RefsPer4 {
			ev.AddMem(g.ref(ph, data, n))
			if ph.Pattern == PointerChase {
				ev.ExtraStall = 20 // serialized dependent loads
			}
		}
		ev.HasBranch = true
		br := ph.BranchRand + g.branchAdj
		if g.rng.Float64() < br {
			ev.Taken = g.rng.Bool(0.5)
		} else {
			ev.Taken = n%8 != 7 // predictable loop branch
		}
		e.Commit(ev)
		if uint64(blockInsts) >= g.remaining {
			g.remaining = 0
		} else {
			g.remaining -= blockInsts
		}
	}
	g.wander(ph)
}

// ref computes the block's data address per the phase's pattern.
func (g *gen) ref(ph *Phase, data addr.Region, n int) uint64 {
	lines := ph.WorkingSet / 64
	if lines == 0 {
		lines = 1
	}
	switch ph.Pattern {
	case Stream:
		g.streamPos = (g.streamPos + 1) % lines
		return data.Base + g.streamPos*64
	case RandomWS, PointerChase:
		return data.Base + g.rng.Uint64n(lines)*64
	case DriftWS:
		total := data.Size / 64
		window := lines
		base := uint64(g.driftPos * float64(total-window))
		return data.Base + (base+g.rng.Uint64n(window))*64
	default:
		return data.Base
	}
}

// wander advances the slow-moving hidden states (drift window, branch
// randomness, ILP noise) once per burst.
func (g *gen) wander(ph *Phase) {
	if ph.Pattern == DriftWS {
		g.driftPos += g.rng.Norm(0, 0.004)
		for g.driftPos < 0 || g.driftPos > 1 {
			if g.driftPos < 0 {
				g.driftPos = -g.driftPos
			}
			if g.driftPos > 1 {
				g.driftPos = 2 - g.driftPos
			}
		}
	}
	if ph.BranchDrift > 0 {
		g.branchAdj += g.rng.Norm(0, ph.BranchDrift/50)
		if g.branchAdj > ph.BranchDrift {
			g.branchAdj = ph.BranchDrift
		}
		if g.branchAdj < -ph.BranchDrift {
			g.branchAdj = -ph.BranchDrift
		}
	}
	if g.prof.ILPNoise > 0 {
		g.ilpAdj += g.rng.Norm(0, g.prof.ILPNoise/40)
		if g.ilpAdj > g.prof.ILPNoise {
			g.ilpAdj = g.prof.ILPNoise
		}
		if g.ilpAdj < -g.prof.ILPNoise {
			g.ilpAdj = -g.prof.ILPNoise
		}
	}
}

func (g *gen) enterNextPhase() {
	g.phase = (g.phase + 1) % len(g.prof.Phases)
	ph := &g.prof.Phases[g.phase]
	length := float64(ph.Insts)
	if g.prof.Jitter > 0 {
		length *= 1 + g.rng.Norm(0, g.prof.Jitter)
	}
	if length < 1000 {
		length = 1000
	}
	g.remaining = uint64(length)
}

// Names returns all 26 benchmark names, sorted.
func Names() []string {
	ps := Profiles()
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	sort.Strings(out)
	return out
}

func init() {
	for _, p := range Profiles() {
		prof := p
		workload.Register("spec."+prof.Name, func() workload.Workload { return New(prof) })
	}
}
