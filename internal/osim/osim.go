// Package osim models the operating-system layer of the simulated machine:
// threads, a round-robin scheduler with time slices, voluntary blocking on
// I/O, and the kernel-mode execution that the paper's whole-system profiler
// observes alongside user code (§5.2).
//
// The scheduler serializes all simulated threads onto one modeled core (the
// paper's analysis is of a single sampled retirement stream). Context
// switches have two costs, both of which matter to the reproduced results:
// the kernel scheduling code itself retires instructions at kernel EIPs
// (producing the ~15% OS time of ODB-C), and the switch pollutes the
// caches, raising the CPI of whatever runs next.
package osim

import (
	"repro/internal/addr"
	"repro/internal/cpu"
)

// Runner generates a thread's execution as contiguous runs of basic-block
// events, which the scheduler retires a run at a time.
//
// Pending returns the next run of undelivered events, generating more on
// demand if the buffer is dry. A return of (nil, w) with w > 0 means the
// thread blocks for w cycles — the wait is consumed by the call, so the
// scheduler only invokes Pending when committed to acting on the result.
// A return of (nil, 0) means the thread is done. Consume(n) discards the
// first n events of the run returned by the last Pending.
type Runner interface {
	Pending() (evs []cpu.BlockEvent, wait uint64)
	Consume(n int)
}

// Observer receives retired block events (the profiler's hook).
//
// SkipUntil lets the retirement loop elide callbacks: it returns an
// absolute retired-instruction count before which AfterRetire calls may be
// skipped (0 = never skip). An observer must answer conservatively — an
// event is only unobserved when the core's instruction count after retiring
// it is still strictly below the returned mark — so a sampler returns its
// next sampling point and a per-event accumulator returns 0.
type Observer interface {
	AfterRetire(ev *cpu.BlockEvent)
	SkipUntil() uint64
}

// TraceBuffered is implemented by runners whose event stream is a pure
// function of their own state — independent of scheduling order, simulated
// time, and every other thread — and can therefore be generated ahead of
// retirement on a background goroutine. The scheduler still consumes each
// thread's stream strictly in order and interleaves threads exactly as it
// would inline, so the merged retirement stream (and hence the profile) is
// byte-identical at any worker count.
//
// RunObserved calls StartLookahead once per such runner before the first
// Pending when trace workers are enabled, and StopLookahead on every exit
// path (completion, budget exhaustion, cancellation). StopLookahead must
// terminate the producer goroutine, wait for it, and be a no-op when
// StartLookahead was never called.
type TraceBuffered interface {
	Runner
	StartLookahead(pool *TracePool)
	StopLookahead()
}

// TracePool bounds how many lookahead producers may generate trace
// simultaneously during one scheduler run.
type TracePool struct{ sem chan struct{} }

// NewTracePool returns a pool with the given number of generation slots
// (minimum 1).
func NewTracePool(workers int) *TracePool {
	if workers < 1 {
		workers = 1
	}
	return &TracePool{sem: make(chan struct{}, workers)}
}

// Acquire blocks until a generation slot is free or stop is closed, and
// reports whether the slot was acquired. Every successful Acquire must be
// paired with Release.
func (p *TracePool) Acquire(stop <-chan struct{}) bool {
	select {
	case p.sem <- struct{}{}:
		return true
	case <-stop:
		return false
	}
}

// Release returns a generation slot to the pool.
func (p *TracePool) Release() { <-p.sem }

// Config tunes the scheduler.
type Config struct {
	// TimeSliceInsts is the round-robin quantum in retired instructions.
	TimeSliceInsts uint64

	// SwitchPollution is the fraction of cache lines invalidated per
	// context switch (coarse model of the interloper's footprint).
	SwitchPollution float64

	// KernelInstsPerSwitch is how many kernel instructions the scheduler
	// path retires per context switch.
	KernelInstsPerSwitch int

	// KernelInstsPerIO is how many kernel instructions the I/O submission
	// and completion paths retire per blocking call.
	KernelInstsPerIO int
}

// DefaultConfig returns scheduler parameters that, combined with the
// workload models, land the OS-time and context-switch-rate statistics in
// the ranges the paper reports.
func DefaultConfig() Config {
	return Config{
		TimeSliceInsts:       4000,
		SwitchPollution:      0.06,
		KernelInstsPerSwitch: 48,
		KernelInstsPerIO:     64,
	}
}

// Stats reports scheduler activity over a run.
type Stats struct {
	ContextSwitches uint64 // all switches of the running thread
	Voluntary       uint64 // due to blocking or finishing
	Involuntary     uint64 // due to time-slice expiry
	KernelInsts     uint64 // instructions retired at kernel EIPs
	UserInsts       uint64 // instructions retired at user EIPs
	IdleCycles      uint64 // cycles with no runnable thread
	IOWaits         uint64 // blocking calls issued
}

// OSFraction returns the fraction of retired instructions spent in the
// kernel.
func (s Stats) OSFraction() float64 {
	t := s.KernelInsts + s.UserInsts
	if t == 0 {
		return 0
	}
	return float64(s.KernelInsts) / float64(t)
}

type threadState int

const (
	stateReady threadState = iota
	stateBlocked
	stateDone
)

type thread struct {
	id     int
	runner Runner
	state  threadState
	wakeAt uint64 // simulated time (cycles) when a blocked thread becomes ready
}

// Sched is the scheduler. It owns the retirement loop: workload threads
// are registered with Add, and RunObserved drives them against the core
// until an instruction budget is exhausted.
type Sched struct {
	cfg     Config
	core    *cpu.Core
	threads []*thread
	next    int // round-robin cursor

	kernSched   addr.Region
	kernIO      addr.Region
	kernSchedID int32 // interned block id of kernSched's first block
	kernIOID    int32 // interned block id of kernIO's first block
	kernWalk    uint64
	kernEv      cpu.BlockEvent // reused by runKernel (escapes via Observer)

	stats Stats
	idle  uint64 // accumulated idle cycles (kept out of core counters)

	// stop, if non-nil, is polled once per scheduling decision; returning
	// true ends RunObserved early (cooperative cancellation).
	stop func() bool

	// traceWorkers > 0 enables lookahead generation for TraceBuffered
	// runners, bounded to that many concurrent producers.
	traceWorkers int
}

// New builds a scheduler over core. Kernel code regions are allocated from
// space so that kernel EIPs are attributable (addr.IsKernel).
func New(core *cpu.Core, space *addr.Space, cfg Config) *Sched {
	if cfg.TimeSliceInsts == 0 {
		cfg.TimeSliceInsts = DefaultConfig().TimeSliceInsts
	}
	s := &Sched{
		cfg:       cfg,
		core:      core,
		kernSched: space.AllocKernelCode("kernel.sched", 96<<10),
		kernIO:    space.AllocKernelCode("kernel.io", 128<<10),
	}
	s.kernSchedID = space.BlockIDBase(s.kernSched.Base)
	s.kernIOID = space.BlockIDBase(s.kernIO.Base)
	return s
}

// Add registers a thread and returns its id. Threads added after
// RunObserved has started are picked up on the next scheduling decision.
func (s *Sched) Add(r Runner) int {
	id := len(s.threads)
	s.threads = append(s.threads, &thread{id: id, runner: r, state: stateReady})
	return id
}

// Stats returns the accumulated scheduler statistics.
func (s *Sched) Stats() Stats { return s.stats }

// SetStop installs a cancellation poll: RunObserved checks stop once per
// scheduling decision (every time slice, not every retirement, so the
// simulation hot path stays untouched) and returns early when it reports
// true. A nil stop disables the check. Stats after an early stop are
// valid but cover only the simulated prefix.
func (s *Sched) SetStop(stop func() bool) { s.stop = stop }

// Stopped polls the stop function SetStop installed (false with none), so
// workload set-up can stop early too.
func (s *Sched) Stopped() bool { return s.stop != nil && s.stop() }

// SetTraceWorkers enables lookahead trace generation: threads whose
// runners implement TraceBuffered generate their event streams on
// background goroutines (at most n generating concurrently) while the
// retirement loop consumes them in order. n <= 0 — the default — keeps
// every thread's generation inline. The retirement stream is byte-identical
// at every setting; only wall-clock time changes.
func (s *Sched) SetTraceWorkers(n int) { s.traceWorkers = n }

// Now returns simulated time in cycles (core cycles plus idle time).
func (s *Sched) Now() uint64 { return s.core.Cycles() + s.idle }

// RunObserved executes threads round-robin until maxInsts instructions
// have retired or every thread is done. obs, if non-nil, sees every
// retired block (the profiler's hook), except that obs.SkipUntil lets the
// retirement loop skip callback dispatch between sampling boundaries. It
// returns the stats so far.
func (s *Sched) RunObserved(maxInsts uint64, obs Observer) Stats {
	if s.traceWorkers > 0 {
		pool := NewTracePool(s.traceWorkers)
		var started []TraceBuffered
		for _, t := range s.threads {
			if tb, ok := t.runner.(TraceBuffered); ok {
				tb.StartLookahead(pool)
				started = append(started, tb)
			}
		}
		// Producers are stopped on every exit path — completion, budget
		// exhaustion, or cancellation — so no goroutine leaks.
		defer func() {
			for _, tb := range started {
				tb.StopLookahead()
			}
		}()
	}

	cur := s.pickReady()
	for s.core.Insts() < maxInsts {
		if s.Stopped() {
			break
		}
		if cur == nil {
			// Nothing runnable: advance time to the earliest wakeup.
			wake, ok := s.earliestWake()
			if !ok {
				break // all threads done
			}
			if now := s.Now(); wake > now {
				d := wake - now
				s.idle += d
				s.stats.IdleCycles += d
			}
			s.wakeup()
			cur = s.pickReady()
			continue
		}

		switched := s.runSlice(cur, obs, maxInsts)
		if s.core.Insts() >= maxInsts {
			break
		}
		if !switched {
			s.stats.Involuntary++
		}

		s.wakeup()
		next := s.pickReady()
		if next != nil && next != cur {
			s.contextSwitch(next, obs)
		}
		cur = next
	}
	return s.stats
}

// runSlice runs one time slice of cur by retiring whole runs of pending
// events per call. It reports whether the thread switched away (blocked or
// finished) before the slice or the budget ran out. The budget and the
// slice are re-checked before every run, and the run is cut after the
// event that crosses the nearer of the two: that event retires, then the
// slice ends. Blocks and completions are discovered at run boundaries.
func (s *Sched) runSlice(cur *thread, obs Observer, maxInsts uint64) (switched bool) {
	sliceLeft := s.cfg.TimeSliceInsts
	for sliceLeft > 0 {
		done := s.core.Insts()
		if done >= maxInsts {
			return false
		}
		pend, wait := cur.runner.Pending()
		if len(pend) == 0 {
			if wait > 0 {
				s.block(cur, wait, obs)
			} else {
				cur.state = stateDone
				s.stats.Voluntary++
			}
			return true
		}

		// Cut the run after the event that crosses the nearer of the slice
		// and the budget. Thread attribution happens in the same pass.
		limit := sliceLeft
		if rem := maxInsts - done; rem < limit {
			limit = rem
		}
		var sum, kern uint64
		n := 0
		for i := range pend {
			pend[i].Thread = int32(cur.id)
			insts := uint64(pend[i].Insts)
			sum += insts
			if addr.IsKernel(pend[i].PC) {
				kern += insts
			}
			n = i + 1
			if sum >= limit {
				break
			}
		}
		s.retireRun(pend[:n], obs)
		s.stats.KernelInsts += kern
		s.stats.UserInsts += sum - kern
		cur.runner.Consume(n)
		if sum >= sliceLeft {
			sliceLeft = 0
		} else {
			sliceLeft -= sum
		}
	}
	return false
}

// retire sends the event to the core and the observer, attributing
// instructions to user/kernel mode.
func (s *Sched) retire(ev *cpu.BlockEvent, obs Observer) {
	s.core.Retire(ev)
	if addr.IsKernel(ev.PC) {
		s.stats.KernelInsts += uint64(ev.Insts)
	} else {
		s.stats.UserInsts += uint64(ev.Insts)
	}
	if obs != nil {
		obs.AfterRetire(ev)
	}
}

// retireRun retires a run of already-attributed events, splitting it into
// maximal unobserved stretches (retired with no callback dispatch, as
// permitted by obs.SkipUntil) and individually observed boundary events.
// The core sees the events in order either way.
func (s *Sched) retireRun(evs []cpu.BlockEvent, obs Observer) {
	if obs == nil {
		s.core.RetireBatch(evs)
		return
	}
	i := 0
	for i < len(evs) {
		if skip := obs.SkipUntil(); skip > s.core.Insts() {
			// Events are unobservable while the post-retirement count stays
			// strictly below skip; take the longest such prefix.
			free := skip - s.core.Insts()
			var sum uint64
			j := i
			for j < len(evs) && sum+uint64(evs[j].Insts) < free {
				sum += uint64(evs[j].Insts)
				j++
			}
			if j > i {
				s.core.RetireBatch(evs[i:j])
				i = j
				continue
			}
		}
		s.core.Retire(&evs[i])
		obs.AfterRetire(&evs[i])
		i++
	}
}

// block charges the I/O submission path and puts t to sleep.
func (s *Sched) block(t *thread, wait uint64, obs Observer) {
	s.stats.IOWaits++
	s.runKernel(s.kernIO, s.kernIOID, s.cfg.KernelInstsPerIO, t, obs)
	t.state = stateBlocked
	t.wakeAt = s.Now() + wait
	s.stats.Voluntary++
}

// runKernel retires ~insts instructions of kernel code from region on
// behalf of thread t, walking distinct kernel blocks so kernel EIPs show a
// realistic spread in the profile.
func (s *Sched) runKernel(region addr.Region, idBase int32, insts int, t *thread, obs Observer) {
	ev := &s.kernEv
	const blockInsts = 16
	for done := 0; done < insts; done += blockInsts {
		ev.Reset()
		s.kernWalk = s.kernWalk*6364136223846793005 + 1442695040888963407
		off := (s.kernWalk >> 33) % (region.Size / 64)
		ev.PC = region.Base + off*64
		ev.ID = idBase + int32(off)
		ev.Thread = int32(t.id)
		ev.Insts = blockInsts
		ev.BaseCPI = 0.8 // kernel code: low ILP, pointer chasing
		ev.HasBranch = true
		ev.Taken = s.kernWalk&1 == 0
		s.retire(ev, obs)
	}
}

// contextSwitch charges the scheduler path and cache pollution.
func (s *Sched) contextSwitch(to *thread, obs Observer) {
	s.stats.ContextSwitches++
	s.runKernel(s.kernSched, s.kernSchedID, s.cfg.KernelInstsPerSwitch, to, obs)
	s.core.ContextSwitch(s.cfg.SwitchPollution)
}

// wakeup moves blocked threads whose deadline has passed to ready.
func (s *Sched) wakeup() {
	now := s.Now()
	for _, t := range s.threads {
		if t.state == stateBlocked && t.wakeAt <= now {
			t.state = stateReady
		}
	}
}

// pickReady returns the next ready thread in round-robin order, or nil.
func (s *Sched) pickReady() *thread {
	n := len(s.threads)
	for i := 0; i < n; i++ {
		t := s.threads[(s.next+i)%n]
		if t.state == stateReady {
			s.next = (t.id + 1) % n
			return t
		}
	}
	return nil
}

// earliestWake returns the soonest wakeup time among blocked threads.
func (s *Sched) earliestWake() (uint64, bool) {
	var best uint64
	found := false
	for _, t := range s.threads {
		if t.state == stateBlocked && (!found || t.wakeAt < best) {
			best = t.wakeAt
			found = true
		}
	}
	return best, found
}
