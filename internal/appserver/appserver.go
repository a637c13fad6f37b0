// Package appserver implements the SPECjAppServer (SjAS) analog: a J2EE
// middle tier under a fixed injection rate (§2.1). Worker threads process
// business requests by running chains of EJB-style methods on a modeled
// managed runtime:
//
//   - methods start out interpreted (high inherent CPI, shared interpreter
//     code) and are JIT-compiled after a hotness threshold, at which point
//     they execute from freshly allocated code addresses — the dynamic code
//     behaviour that motivated the paper's finer 100K-instruction sampling
//     of SjAS (§3.1);
//   - requests allocate from a bump-pointer heap; when the young region
//     fills, a parallel-GC pause marks live session data (a burst of
//     distinct GC code and scattered heap references);
//   - each request performs backend database calls and network I/O, giving
//     SjAS its very high voluntary context-switch rate (~5000/s, §5.2);
//   - session state is far larger than the L3, so 30-40% of CPI comes from
//     L3 miss stalls (§5.1, Figure 5) — enough to blunt code-CPI
//     correlation, but less totalizing than ODB-C's.
package appserver

import (
	"repro/internal/addr"
	"repro/internal/osim"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// Config tunes the workload.
type Config struct {
	Workers int
	Methods int
	// JITThreshold is the invocation count after which a method is
	// compiled.
	JITThreshold int
	// HeapBytes is the young-generation budget between GC pauses
	// (simulated bytes; the paper's setup uses a 1.5GB heap tuned to
	// reduce GC frequency).
	HeapBytes uint64
	// ThinkCycles is the mean inter-request wait per worker (sets the
	// injection rate).
	ThinkCycles float64
	// BackendCycles is the mean blocking time of a backend DB call.
	BackendCycles float64
}

// DefaultConfig mirrors the paper's 18-thread, injection-rate-100 setup at
// simulation scale.
func DefaultConfig() Config {
	return Config{
		Workers:       18,
		Methods:       520,
		JITThreshold:  40,
		HeapBytes:     8 << 20,
		ThinkCycles:   2600,
		BackendCycles: 7000,
	}
}

// method is one EJB-style method's runtime state.
type method struct {
	calls   int
	jitted  bool
	jitSeq  int // sequential walk cursor within its jitted blocks
	jitBase int // first block index in the jit region
	blocks  int // jitted code size in blocks
}

// Workload is the SjAS analog.
type Workload struct {
	cfg Config

	server  *workload.CodeRegion // dispatch, container, marshalling
	interp  *workload.CodeRegion // shared interpreter loop
	jit     *workload.CodeRegion // compiled-code arena (filled over time)
	gcCode  *workload.CodeRegion
	session addr.Region // long-lived session/entity state
	heap    addr.Region // young allocation space

	methods  []*method
	jitNext  int // next free block in the jit arena
	heapUsed uint64
	zipf     *xrand.Zipf

	// gcEpoch counts collections; each worker contributes its share of
	// mark work when it notices a new epoch (parallel stop-the-world GC:
	// every thread executes collector code, as the paper's JRockit
	// parallel collector does, §2.3).
	gcEpoch int

	// Stats exposed after runs.
	Requests int
	GCs      int
	JITs     int
}

// New returns the workload with default configuration.
func New() *Workload { return &Workload{cfg: DefaultConfig()} }

// Name implements workload.Workload.
func (w *Workload) Name() string { return "sjas" }

// SamplePeriod implements workload.Workload: SjAS is sampled 10x finer to
// capture short-lived dynamic code (§3.1).
func (w *Workload) SamplePeriod() uint64 { return workload.SamplePeriodFine }

// Setup implements workload.Workload.
func (w *Workload) Setup(sched *osim.Sched, space *addr.Space, seed uint64) {
	w.server = workload.NewCodeRegion(space, "sjas.server", 6000)
	w.interp = workload.NewCodeRegion(space, "sjas.interp", 8000)
	w.jit = workload.NewCodeRegion(space, "sjas.jit", 26000)
	w.gcCode = workload.NewCodeRegion(space, "sjas.gc", 500)
	w.session = space.AllocData("sjas.session", 48<<20)
	w.heap = space.AllocData("sjas.heap", w.cfg.HeapBytes)
	w.zipf = xrand.NewZipf(w.cfg.Methods, 0.9)
	w.methods = make([]*method, w.cfg.Methods)
	rng := xrand.New(seed ^ 0x5a5)
	for i := range w.methods {
		w.methods[i] = &method{blocks: rng.Range(24, 56)}
	}
	for i := 0; i < w.cfg.Workers; i++ {
		wk := &worker{w: w, rng: rng.Split(uint64(i) + 77)}
		sched.Add(workload.NewRunner(wk))
	}
}

// worker is one request-processing thread.
type worker struct {
	w       *Workload
	rng     *xrand.Rand
	reqBase uint64 // current request's session object
	gcSeen  int    // last GC epoch this worker contributed to
}

func (k *worker) emit(e *workload.Emitter, b workload.BlockRef, insts int, baseCPI float64, mem uint64) {
	ev := e.Alloc()
	b.Assign(ev)
	ev.Insts = int32(insts)
	ev.BaseCPI = baseCPI
	if mem != 0 {
		ev.AddMem(mem)
	}
	ev.HasBranch = true
	ev.Taken = k.rng.Bool(0.55)
	e.Commit(ev)
}

// sessionRef returns a reference into session state: mostly the current
// request's own session object (cache-warm), some shared hot entities, and
// a tail over the full (L3-busting) session space.
func (k *worker) sessionRef() uint64 {
	r := k.rng.Float64()
	switch {
	case r < 0.60:
		return k.reqBase + k.rng.Uint64n(1024/64)*64
	case r < 0.74:
		const hot = 64 << 10
		return k.w.session.Base + k.rng.Uint64n(hot/64)*64
	default:
		return k.w.session.Base + k.rng.Uint64n(k.w.session.Size/64)*64
	}
}

// Burst implements workload.Gen: one request end-to-end, then think time.
func (k *worker) Burst(e *workload.Emitter) {
	w := k.w
	// Contribute this thread's share of any pending parallel collection
	// before touching the heap again.
	for k.gcSeen < w.gcEpoch {
		k.gcSeen++
		k.gcShare(e)
	}
	w.Requests++
	k.reqBase = w.session.Base + k.rng.Uint64n((w.session.Size-8192)/8192)*8192

	// Container dispatch and demarshalling.
	for i := 0; i < 14; i++ {
		var mem uint64
		if i%4 == 0 {
			mem = k.sessionRef()
		}
		k.emit(e, w.server.HotPC(), 12, 0.75, mem)
	}

	calls := k.rng.Range(5, 14)
	for c := 0; c < calls; c++ {
		k.invoke(e, w.methods[w.zipf.Draw(k.rng)])
		if c == calls/2 {
			// Mid-request backend database call.
			e.Wait(uint64(k.rng.Exp(w.cfg.BackendCycles)) + 1)
		}
	}

	// Reply marshalling.
	for i := 0; i < 8; i++ {
		k.emit(e, w.server.HotPC(), 12, 0.75, 0)
	}
	e.Wait(uint64(k.rng.Exp(w.cfg.ThinkCycles)) + 1)
}

// invoke runs one method, allocating as it goes and possibly triggering
// JIT compilation or a GC pause.
func (k *worker) invoke(e *workload.Emitter, m *method) {
	w := k.w
	m.calls++
	if !m.jitted && m.calls > w.cfg.JITThreshold && w.jitNext+m.blocks < w.jit.Blocks() {
		// Compile: the compiler itself runs (server code), then the method
		// gets fresh code addresses in the arena.
		for i := 0; i < 60; i++ {
			k.emit(e, w.server.NextPC(), 14, 0.8, 0)
		}
		m.jitted = true
		m.jitBase = w.jitNext
		w.jitNext += m.blocks
		w.JITs++
	}

	bodyLen := m.blocks
	if m.jitted {
		// Compiled code: the method's own addresses, decent ILP.
		for i := 0; i < bodyLen; i++ {
			pc := w.jit.PC(m.jitBase + m.jitSeq%m.blocks)
			m.jitSeq++
			var mem uint64
			if i%3 == 0 {
				mem = k.sessionRef()
			}
			k.emit(e, pc, 13, 0.6, mem)
		}
	} else {
		// Interpreted: shared interpreter loop, poor ILP, extra dispatch
		// loads.
		for i := 0; i < bodyLen; i++ {
			var mem uint64
			if i%3 == 0 {
				mem = k.sessionRef()
			}
			k.emit(e, w.interp.HotPC(), 11, 1.25, mem)
		}
	}

	// Allocate per call; trigger GC when the young space fills.
	alloc := uint64(k.rng.Range(200, 1600))
	base := w.heap.Base + (w.heapUsed % w.heap.Size)
	w.heapUsed += alloc
	k.emit(e, w.server.HotPC(), 8, 0.7, base)
	if w.heapUsed >= w.heap.Size {
		// Trigger a collection: every worker (including this one, via the
		// check at its next Burst) executes a share of the mark work.
		w.GCs++
		w.gcEpoch++
		w.heapUsed = 0
	}
}

// gcShare is one thread's slice of a stop-the-world parallel collection:
// collector code walking live session data with scattered references.
func (k *worker) gcShare(e *workload.Emitter) {
	w := k.w
	n := 4000 / w.cfg.Workers
	if n < 32 {
		n = 32
	}
	for i := 0; i < n; i++ {
		k.emit(e, w.gcCode.SeqPC(), 12, 0.9, k.sessionRef())
	}
}

func init() {
	workload.Register("sjas", func() workload.Workload { return New() })
}
