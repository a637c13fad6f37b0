package osim

import (
	"testing"
	"testing/quick"

	"repro/internal/addr"
	"repro/internal/cpu"
	"repro/internal/xrand"
)

// chaosRunner emits a random mix of runs and waits, including
// pathological patterns (back-to-back waits, near-immediate wakeups, runs
// of one event, early completion). Runs are 1–64 events long, so slice
// and budget boundaries fall inside them.
type chaosRunner struct {
	rng  *xrand.Rand
	pc   uint64
	left int              // items (events or waits) still to generate
	run  []cpu.BlockEvent // undelivered rest of the current run
	buf  []cpu.BlockEvent
}

func (c *chaosRunner) Pending() ([]cpu.BlockEvent, uint64) {
	if len(c.run) > 0 {
		return c.run, 0
	}
	if c.left <= 0 {
		return nil, 0
	}
	switch c.rng.Intn(10) {
	case 0:
		c.left--
		return nil, uint64(c.rng.Intn(5000)) + 1
	case 1:
		c.left--
		return nil, 1 // near-immediate wakeup
	}
	n := min(1+c.rng.Intn(64), c.left)
	c.left -= n
	c.buf = c.buf[:0]
	for i := 0; i < n; i++ {
		var ev cpu.BlockEvent
		ev.PC = c.pc + uint64(c.rng.Intn(64))*64
		ev.Insts = int32(1 + c.rng.Intn(30))
		ev.BaseCPI = 0.3 + c.rng.Float64()
		if c.rng.Bool(0.3) {
			ev.AddMem(0x100000000 + c.rng.Uint64()%(1<<24))
		}
		ev.HasBranch = c.rng.Bool(0.5)
		ev.Taken = c.rng.Bool(0.5)
		c.buf = append(c.buf, ev)
	}
	c.run = c.buf
	return c.run, 0
}

func (c *chaosRunner) Consume(n int) { c.run = c.run[n:] }

// chaosObserver answers SkipUntil with a fresh random mark after every
// observed event: none, one already passed, or one up to a few thousand
// instructions ahead. It checks the Observer contract from the core's
// count: every event retired since the last observed one must have ended
// strictly below the mark.
type chaosObserver struct {
	core     *cpu.Core
	rng      *xrand.Rand
	mark     uint64
	seen     uint64 // core count after the last observed event
	observed uint64 // instructions of observed events
	missed   int    // events skipped although they reached the mark
}

func (o *chaosObserver) SkipUntil() uint64 { return o.mark }

func (o *chaosObserver) AfterRetire(ev *cpu.BlockEvent) {
	o.checkSkipped(o.core.Insts() - uint64(ev.Insts))
	o.seen = o.core.Insts()
	o.observed += uint64(ev.Insts)
	switch now := o.core.Insts(); o.rng.Intn(4) {
	case 0:
		o.mark = 0
	case 1:
		o.mark = now - uint64(o.rng.Intn(int(min(now, 100))+1))
	default:
		o.mark = now + 1 + uint64(o.rng.Intn(3000))
	}
}

// checkSkipped checks the unobserved stretch that ends at count upTo: the
// last event in it ended there, so it must lie strictly below the mark.
func (o *chaosObserver) checkSkipped(upTo uint64) {
	if upTo > o.seen && upTo >= o.mark {
		o.missed++
	}
}

// TestSchedulerSurvivesChaos drives the scheduler with adversarial thread
// behaviour and checks its invariants: it terminates, never over-runs the
// budget by more than one block, keeps counters consistent, and the
// observer sees every event that reaches its SkipUntil mark.
func TestSchedulerSurvivesChaos(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		core := cpu.New(cpu.Itanium2())
		space := addr.NewSpace()
		s := New(core, space, Config{
			TimeSliceInsts:       uint64(100 + rng.Intn(4000)),
			SwitchPollution:      rng.Float64() * 0.3,
			KernelInstsPerSwitch: rng.Intn(200),
			KernelInstsPerIO:     rng.Intn(200),
		})
		n := 1 + rng.Intn(6)
		for i := 0; i < n; i++ {
			s.Add(&chaosRunner{rng: rng.Split(uint64(i)), pc: 0x400000 + uint64(i)*0x10000, left: 200 + rng.Intn(2000)})
		}
		obs := &chaosObserver{core: core, rng: rng.Split(99)}
		budget := uint64(5000 + rng.Intn(400000))
		st := s.RunObserved(budget, obs)
		ctr := core.Counters()
		obs.checkSkipped(ctr.Insts)
		if obs.missed > 0 || obs.observed > ctr.Insts {
			return false
		}
		// Overshoot is bounded by one user block plus one kernel I/O path.
		if ctr.Insts > budget+512 {
			return false
		}
		if ctr.Cycles != ctr.WorkCycles+ctr.FECycles+ctr.EXECycles+ctr.OtherCycles {
			return false
		}
		if frac := st.OSFraction(); frac < 0 || frac > 1 {
			return false
		}
		if st.KernelInsts+st.UserInsts != ctr.Insts {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerDeterministicUnderChaos ensures the chaotic runs are still
// reproducible for a fixed seed.
func TestSchedulerDeterministicUnderChaos(t *testing.T) {
	run := func() cpu.Counters {
		rng := xrand.New(77)
		core := cpu.New(cpu.Itanium2())
		space := addr.NewSpace()
		s := New(core, space, DefaultConfig())
		for i := 0; i < 4; i++ {
			s.Add(&chaosRunner{rng: rng.Split(uint64(i)), pc: 0x400000 + uint64(i)*0x10000, left: 3000})
		}
		s.Run(200000, nil)
		return core.Counters()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("chaotic run not reproducible:\n%+v\n%+v", a, b)
	}
}
