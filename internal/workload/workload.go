// Package workload defines the common machinery every workload model in
// this repository is built from: the time scale that maps the simulation to
// the paper's numbers, code regions that give logical routines honest
// instruction footprints, a burst-based event generator abstraction, and
// the Workload interface the experiment harness runs.
package workload

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/addr"
	"repro/internal/cpu"
	"repro/internal/osim"
)

// The simulation's instruction scale. One simulated instruction stands for
// Scale real instructions; every interval/period parameter from the paper
// is divided by Scale. The ratios the analysis depends on (samples per
// EIPV, switches per second, OS fraction) are preserved exactly.
const (
	// Scale is the real-instructions-per-simulated-instruction factor.
	Scale = 1000

	// IntervalInsts is the EIPV interval length in simulated instructions
	// (paper: 100M real instructions, §3.2).
	IntervalInsts = 100_000

	// SamplePeriod is the default profiler period in simulated
	// instructions (paper: one sample per 1M retired instructions, §3.1),
	// giving the paper's 100 samples per EIPV.
	SamplePeriod = 1000

	// SamplePeriodFine is the SjAS period (paper: 1 per 100K, §3.1).
	SamplePeriodFine = 100

	// ClockHz is the modeled core frequency (paper: 900MHz Itanium 2).
	// Together with Scale it converts simulated cycles to real seconds:
	// one simulated cycle stands for Scale real cycles.
	ClockHz = 900e6
)

// Seconds converts a simulated cycle count to modeled wall-clock seconds.
func Seconds(cycles uint64) float64 {
	return float64(cycles) * Scale / ClockHz
}

// BlockRef identifies one basic block: its simulated PC and the dense
// interned id addr.Space assigned to it at region allocation. Walk methods
// return BlockRef rather than a bare PC so every emit site carries the id
// to the event stream, where slice-indexed accumulators (the BBV builder)
// use it in place of PC hashing.
type BlockRef struct {
	PC uint64
	ID int32
}

// Assign stamps the block's PC and interned id onto an event.
func (b BlockRef) Assign(ev *cpu.BlockEvent) { ev.PC, ev.ID = b.PC, b.ID }

// CodeRegion is a logical routine (or subsystem) occupying a contiguous
// code region of `blocks` distinct basic blocks, one 64-byte line apart.
// Walking a region touches its addresses for real, so instruction-cache
// pressure emerges from footprint rather than from an assumed miss rate.
type CodeRegion struct {
	Region addr.Region
	idBase int32
	blocks int
	walk   uint64
	seq    int
	hot    int
}

// BlockSpacing is the byte distance between block addresses in a region.
const BlockSpacing = 64

// NewCodeRegion allocates a region of the given number of distinct blocks.
// It panics if blocks <= 0.
func NewCodeRegion(space *addr.Space, name string, blocks int) *CodeRegion {
	if blocks <= 0 {
		panic(fmt.Sprintf("workload: NewCodeRegion %q blocks=%d", name, blocks))
	}
	r := space.AllocCode(name, uint64(blocks)*BlockSpacing)
	return &CodeRegion{
		Region: r,
		idBase: space.BlockIDBase(r.Base),
		blocks: blocks,
		walk:   r.Base ^ 0x9e3779b97f4a7c15,
	}
}

// Blocks returns the number of distinct block addresses.
func (c *CodeRegion) Blocks() int { return c.blocks }

// PC returns block i (mod the region size).
func (c *CodeRegion) PC(i int) BlockRef {
	i %= c.blocks
	if i < 0 {
		i += c.blocks
	}
	return BlockRef{
		PC: c.Region.Base + uint64(i)*BlockSpacing,
		ID: c.idBase + int32(i),
	}
}

// NextPC returns the next block of a deterministic pseudo-random walk
// over the region, modeling control flow that wanders a large routine.
func (c *CodeRegion) NextPC() BlockRef {
	c.walk = c.walk*6364136223846793005 + 1442695040888963407
	return c.PC(int((c.walk >> 33) % uint64(c.blocks)))
}

// SeqPC returns the next block of a sequential wrap-around walk,
// modeling straight-line/loopy code.
func (c *CodeRegion) SeqPC() BlockRef {
	b := c.PC(c.seq)
	c.seq = (c.seq + 1) % c.blocks
	return b
}

// hotWindow is the size (in blocks) of HotPC's locality window, and
// hotShift is how often (in calls) the window slides.
const (
	hotWindow = 192
	hotShift  = 1024
)

// HotPC models realistic large-code locality: most fetches come from a
// slowly-sliding hot window of the region (the currently active code
// paths), with a minority scattered region-wide. Over a long run the walk
// still covers the whole footprint — the "large but flat" EIP profile of
// the server workloads — without charging a cold instruction miss on every
// single block.
func (c *CodeRegion) HotPC() BlockRef {
	c.walk = c.walk*6364136223846793005 + 1442695040888963407
	r := c.walk >> 33
	c.hot++
	base := (c.hot / hotShift * (hotWindow / 3)) % c.blocks
	if r%10 < 7 && c.blocks > hotWindow {
		return c.PC(base + int(r%hotWindow))
	}
	return c.PC(int(r % uint64(c.blocks)))
}

// Emitter buffers the block events produced by one burst of workload
// execution, so workload logic can be written as ordinary sequential code
// while the scheduler consumes the events in contiguous runs.
//
// Events and waits are kept in separate slices: waits are rare, so pending
// events form a plain []cpu.BlockEvent run the scheduler can retire
// directly from the buffer. A waitMark's pos is the number of events
// emitted before it, i.e. the wait is delivered just before evs[pos].
type Emitter struct {
	evs   []cpu.BlockEvent
	waits []waitMark
	head  int // next undelivered event
	wHead int // next undelivered wait
	done  bool
	insts uint64
}

type waitMark struct {
	pos    int    // delivered before evs[pos]
	cycles uint64 // block for this many cycles
}

// Alloc returns a reset event slot at the tail of the buffer for in-place
// filling, without copying the event struct on hot emit paths. The caller must
// finish with Commit before invoking any other Emitter method — the pointer
// aliases the buffer and is invalidated by the next append.
func (e *Emitter) Alloc() *cpu.BlockEvent {
	if len(e.evs) == cap(e.evs) {
		e.evs = append(e.evs, cpu.BlockEvent{})
	} else {
		e.evs = e.evs[:len(e.evs)+1]
		e.evs[len(e.evs)-1].Reset()
	}
	return &e.evs[len(e.evs)-1]
}

// Commit finalizes an event obtained from Alloc, folding its instruction
// count into the emitter's accounting.
func (e *Emitter) Commit(ev *cpu.BlockEvent) {
	e.insts += uint64(ev.Insts)
}

// EmitBlock is a convenience for the common case: one block b with the
// given size and inherent CPI, no memory references.
func (e *Emitter) EmitBlock(b BlockRef, insts int, baseCPI float64) {
	ev := e.Alloc()
	ev.PC, ev.ID = b.PC, b.ID
	ev.Insts = int32(insts)
	ev.BaseCPI = baseCPI
	e.insts += uint64(insts)
}

// InstsEmitted returns the cumulative instruction count of all events ever
// emitted through this emitter (generators use it to align their work to
// measurement boundaries).
func (e *Emitter) InstsEmitted() uint64 { return e.insts }

// Wait appends a blocking I/O wait of the given duration.
func (e *Emitter) Wait(cycles uint64) {
	e.waits = append(e.waits, waitMark{pos: len(e.evs), cycles: cycles})
}

// Done marks the generator finished; no more bursts will be requested.
func (e *Emitter) Done() { e.done = true }

// Pending returns the number of undelivered items (events plus waits).
func (e *Emitter) Pending() int {
	return len(e.evs) - e.head + len(e.waits) - e.wHead
}

// reset clears a fully-drained buffer for the next burst, reusing capacity.
func (e *Emitter) reset() {
	e.evs = e.evs[:0]
	e.waits = e.waits[:0]
	e.head, e.wHead = 0, 0
}

// batch returns the longest run of undelivered events up to the next wait
// mark, without consuming the events (the caller advances head). If a wait
// is due first it is consumed and returned (nil, cycles, true). ok is
// false when the buffer is drained (which resets it).
func (e *Emitter) batch() (evs []cpu.BlockEvent, wait uint64, ok bool) {
	if e.wHead < len(e.waits) && e.waits[e.wHead].pos <= e.head {
		w := e.waits[e.wHead].cycles
		e.wHead++
		return nil, w, true
	}
	if e.head < len(e.evs) {
		end := len(e.evs)
		if e.wHead < len(e.waits) && e.waits[e.wHead].pos < end {
			end = e.waits[e.wHead].pos
		}
		return e.evs[e.head:end], 0, true
	}
	e.reset()
	return nil, 0, false
}

// Gen is a workload thread's logic: Burst is called whenever the event
// queue runs dry and must either emit at least one item or call Done.
type Gen interface {
	Burst(e *Emitter)
}

// GenFunc adapts a function to Gen.
type GenFunc func(e *Emitter)

// Burst implements Gen.
func (f GenFunc) Burst(e *Emitter) { f(e) }

// genRunner adapts a Gen to the scheduler's pull-based Runner interface,
// handing the scheduler contiguous runs straight out of the emitter buffer.
type genRunner struct {
	gen Gen
	em  Emitter
}

// NewRunner wraps a burst generator as a scheduler Runner.
func NewRunner(g Gen) osim.Runner { return &genRunner{gen: g} }

// refill requests one more burst from the generator.
func (r *genRunner) refill() {
	before := len(r.em.evs) + len(r.em.waits)
	r.gen.Burst(&r.em)
	if !r.em.done && len(r.em.evs)+len(r.em.waits) == before {
		panic("workload: Burst made no progress")
	}
}

// Pending implements osim.Runner.
func (r *genRunner) Pending() ([]cpu.BlockEvent, uint64) {
	for {
		if evs, wait, ok := r.em.batch(); ok {
			return evs, wait
		}
		if r.em.done {
			return nil, 0
		}
		r.refill()
	}
}

// Consume implements osim.Runner.
func (r *genRunner) Consume(n int) { r.em.head += n }

// Lookahead tuning: producers hand chunks of this many items to the
// scheduler over a channel buffered this many chunks deep, bounding each
// thread's generation lead while amortizing the handoff cost.
const (
	lookaheadChunk = 2048
	lookaheadDepth = 4
)

// chunkPool recycles lookahead chunks across every runner in the process.
// A cold collection starts many short-lived runners, and a cold-analysis
// batch runs several collections at once, so a chunk drained by one
// runner is refilled by whichever producer asks next; a per-runner free
// list would still make each new runner's first chunks from scratch. A
// recycled chunk may hold a buffer grown past lookaheadChunk by an
// oversized burst; the fill loop bounds a chunk by its length, not its
// capacity, so chunk boundaries never depend on which buffer is reused.
var chunkPool = sync.Pool{New: func() any {
	return &Emitter{evs: make([]cpu.BlockEvent, 0, lookaheadChunk)}
}}

// recycleChunk returns a chunk the scheduler no longer reads to chunkPool.
func recycleChunk(c *Emitter) {
	c.reset()
	chunkPool.Put(c)
}

// lookaheadRunner adapts a *trace-independent* Gen to the scheduler. Until
// StartLookahead is called it behaves exactly like the inline genRunner;
// afterwards a producer goroutine runs the Gen ahead of retirement and the
// scheduler consumes buffered chunks in generation order, so the delivered
// stream is identical either way. Runs are served directly out of the
// current chunk.
type lookaheadRunner struct {
	inner genRunner

	ch   chan *Emitter
	stop chan struct{}
	wg   sync.WaitGroup

	// cur is the chunk being delivered, nil between chunks. Each chunk is
	// an Emitter from chunkPool holding one run of events and the wait
	// marks that interleave it, with positions relative to the chunk's own
	// evs.
	cur *Emitter
}

// NewIndependentRunner wraps a burst generator whose output is provably
// thread-local — it must not read or mutate state shared with any other
// thread (CodeRegion walk cursors, allocators, RNGs), and its emitted
// events and waits must not depend on simulated time. Such a generator's
// trace can be produced ahead of retirement on a background goroutine
// (osim.Sched.SetTraceWorkers) without changing a single byte of the
// profile. Generators that share state (the OLTP clients, the appserver
// workers, multi-worker DSS queries) must use NewRunner instead.
func NewIndependentRunner(g Gen) osim.Runner {
	return &lookaheadRunner{inner: genRunner{gen: g}}
}

// Pending implements osim.Runner. A chunk goes back to chunkPool once
// every item of it has been consumed: the scheduler has retired the run
// it last took from the chunk before it asks for the next one.
func (r *lookaheadRunner) Pending() ([]cpu.BlockEvent, uint64) {
	if r.ch == nil {
		return r.inner.Pending()
	}
	for {
		if r.cur != nil {
			if evs, wait, ok := r.cur.batch(); ok {
				return evs, wait
			}
			recycleChunk(r.cur)
			r.cur = nil
		}
		// Block for the producer's next chunk; a closed channel is the
		// end of the trace.
		chunk, ok := <-r.ch
		if !ok {
			return nil, 0
		}
		r.cur = chunk
	}
}

// Consume implements osim.Runner.
func (r *lookaheadRunner) Consume(n int) {
	if r.ch == nil {
		r.inner.Consume(n)
		return
	}
	r.cur.head += n
}

// StartLookahead implements osim.TraceBuffered. It must be called before
// the first Pending; calling it twice is a no-op.
func (r *lookaheadRunner) StartLookahead(pool *osim.TracePool) {
	if r.ch != nil {
		return
	}
	r.ch = make(chan *Emitter, lookaheadDepth)
	r.stop = make(chan struct{})
	r.wg.Add(1)
	go r.produce(pool)
}

// StopLookahead implements osim.TraceBuffered: it terminates the producer
// and waits for it, after which the generator state is safe to touch again.
// The chunks still buffered go back to chunkPool, and so does the one
// being delivered: the trace ends here, and a later Pending reports it
// done.
func (r *lookaheadRunner) StopLookahead() {
	if r.ch == nil {
		return
	}
	close(r.stop)
	for chunk := range r.ch { // unblock a producer parked on a full channel
		recycleChunk(chunk)
	}
	r.wg.Wait()
	if r.cur != nil {
		recycleChunk(r.cur)
		r.cur = nil
	}
}

// produce runs the generator ahead of retirement, shipping copied chunks.
// The pool slot is held only while bursting, so many threads can take
// turns generating under a small worker bound.
//
// The producer's staging emitter, which each burst fills before it is
// copied into the chunk, is a pooled chunk too, so a new runner does not
// grow one from empty. Its done flag and instruction count start cleared,
// as a fresh emitter's would.
func (r *lookaheadRunner) produce(pool *osim.TracePool) {
	defer r.wg.Done()
	defer close(r.ch)
	em := chunkPool.Get().(*Emitter)
	defer recycleChunk(em)
	em.done, em.insts = false, 0
	for !em.done {
		if !pool.Acquire(r.stop) {
			return
		}
		chunk := chunkPool.Get().(*Emitter)
		for !em.done && len(chunk.evs)+len(chunk.waits) < lookaheadChunk {
			r.inner.gen.Burst(em)
			if !em.done && len(em.evs)+len(em.waits) == 0 {
				panic("workload: Burst made no progress")
			}
			// Drain after every burst: generators are entitled to see the
			// emitter as the inline runner shows it — fully consumed
			// (Pending() == 0) with only InstsEmitted carried forward.
			// Wait positions are rebased onto the chunk's event run.
			base := len(chunk.evs)
			for _, w := range em.waits {
				chunk.waits = append(chunk.waits, waitMark{pos: base + w.pos, cycles: w.cycles})
			}
			chunk.evs = append(chunk.evs, em.evs...)
			em.reset()
		}
		pool.Release()
		if len(chunk.evs)+len(chunk.waits) == 0 {
			recycleChunk(chunk) // the last burst only called Done
			continue
		}
		select {
		case r.ch <- chunk:
		case <-r.stop:
			recycleChunk(chunk)
			return
		}
	}
}

// Workload is a complete benchmark: it builds its threads onto a scheduler
// and declares its preferred profiler sampling period.
type Workload interface {
	// Name returns the benchmark's identifier (e.g. "odb-c", "q13",
	// "gcc").
	Name() string

	// SamplePeriod returns the profiler period in simulated instructions.
	SamplePeriod() uint64

	// Setup registers the workload's threads with the scheduler. The
	// workload allocates its code and data regions from space and must use
	// seed for all randomness.
	Setup(sched *osim.Sched, space *addr.Space, seed uint64)
}

// Factory constructs a fresh workload instance.
type Factory func() Workload

var (
	regMu    sync.Mutex
	registry = map[string]Factory{}
)

// Register adds a workload factory under its name. It panics on duplicate
// registration (a programming error).
func Register(name string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("workload: duplicate registration %q", name))
	}
	registry[name] = f
}

// Lookup returns the factory for name.
func Lookup(name string) (Factory, bool) {
	regMu.Lock()
	defer regMu.Unlock()
	f, ok := registry[name]
	return f, ok
}

// Names returns all registered workload names, sorted.
func Names() []string {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
