package osim

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/cpu"
)

// Run is RunObserved with a plain callback: observe, if non-nil, sees
// every retired block.
func (s *Sched) Run(maxInsts uint64, observe func(ev *cpu.BlockEvent)) Stats {
	if observe == nil {
		return s.RunObserved(maxInsts, nil)
	}
	return s.RunObserved(maxInsts, funcObserver(observe))
}

// funcObserver adapts a plain callback to Observer; it never skips.
type funcObserver func(*cpu.BlockEvent)

func (f funcObserver) AfterRetire(ev *cpu.BlockEvent) { f(ev) }
func (f funcObserver) SkipUntil() uint64              { return 0 }

// loopRunner emits an endless stream of identical user blocks, a run of
// runLen at a time.
type loopRunner struct {
	pc      uint64
	insts   int
	run     []cpu.BlockEvent
	retired uint64 // instructions of the events the scheduler consumed
}

const runLen = 16

func (l *loopRunner) Pending() ([]cpu.BlockEvent, uint64) {
	if len(l.run) == 0 {
		l.run = make([]cpu.BlockEvent, runLen)
		for i := range l.run {
			l.run[i] = cpu.BlockEvent{PC: l.pc, Insts: int32(l.insts), BaseCPI: 0.5}
		}
	}
	return l.run, 0
}

// Consume leaves the run in place: every event of it is the same block.
func (l *loopRunner) Consume(n int) { l.retired += uint64(n * l.insts) }

// finiteRunner runs left blocks in runs of at most runLen, then finishes.
type finiteRunner struct {
	pc      uint64
	left    int
	run     []cpu.BlockEvent
	retired uint64 // instructions of the events the scheduler consumed
}

func (f *finiteRunner) Pending() ([]cpu.BlockEvent, uint64) {
	if f.left <= 0 {
		return nil, 0
	}
	f.run = f.run[:0]
	for i := 0; i < f.left && i < runLen; i++ {
		f.run = append(f.run, cpu.BlockEvent{PC: f.pc, Insts: 10, BaseCPI: 0.5})
	}
	return f.run, 0
}

func (f *finiteRunner) Consume(n int) {
	f.left -= n
	f.retired += uint64(10 * n)
}

// ioRunner runs period-1 compute blocks, then blocks on I/O for wait
// cycles, over and over.
type ioRunner struct {
	pc      uint64
	period  int
	wait    uint64
	ran     int // compute blocks since the last wait
	blocked int
	run     []cpu.BlockEvent
	retired uint64 // instructions of the events the scheduler consumed
}

func (r *ioRunner) Pending() ([]cpu.BlockEvent, uint64) {
	if r.ran == r.period-1 {
		r.ran = 0
		r.blocked++
		return nil, r.wait
	}
	r.run = r.run[:0]
	for i := r.ran; i < r.period-1; i++ {
		r.run = append(r.run, cpu.BlockEvent{PC: r.pc, Insts: 10, BaseCPI: 0.5})
	}
	return r.run, 0
}

func (r *ioRunner) Consume(n int) {
	r.ran += n
	r.retired += uint64(10 * n)
}

func newSched(cfg Config) (*Sched, *cpu.Core) {
	core := cpu.New(cpu.Itanium2())
	space := addr.NewSpace()
	return New(core, space, cfg), core
}

func TestRunRespectsBudget(t *testing.T) {
	s, core := newSched(DefaultConfig())
	s.Add(&loopRunner{pc: 0x400000, insts: 10})
	s.Run(10000, nil)
	got := core.Counters().Insts
	if got < 10000 || got > 10500 {
		t.Fatalf("retired %d, want ~10000", got)
	}
}

func TestFiniteThreadsTerminate(t *testing.T) {
	s, core := newSched(DefaultConfig())
	a := &finiteRunner{pc: 0x400000, left: 50}
	b := &finiteRunner{pc: 0x401000, left: 50}
	s.Add(a)
	s.Add(b)
	s.Run(1<<40, nil) // huge budget: must stop when threads finish
	if core.Counters().Insts == 0 {
		t.Fatal("nothing retired")
	}
	if a.retired != 500 || b.retired != 500 {
		t.Fatalf("threads retired %d and %d instructions, want all 500 each", a.retired, b.retired)
	}
}

func TestRoundRobinShares(t *testing.T) {
	s, _ := newSched(DefaultConfig())
	a := &loopRunner{pc: 0x400000, insts: 10}
	b := &loopRunner{pc: 0x401000, insts: 10}
	s.Add(a)
	s.Add(b)
	s.Run(200000, nil)
	ratio := float64(a.retired) / float64(b.retired)
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("unfair round robin: %d vs %d instructions", a.retired, b.retired)
	}
}

func TestContextSwitchesCounted(t *testing.T) {
	s, _ := newSched(DefaultConfig())
	s.Add(&loopRunner{pc: 0x400000, insts: 10})
	s.Add(&loopRunner{pc: 0x401000, insts: 10})
	st := s.Run(100000, nil)
	if st.ContextSwitches == 0 {
		t.Fatal("no context switches with two CPU-bound threads")
	}
	if st.Involuntary == 0 {
		t.Fatal("no involuntary switches despite slice expiry")
	}
}

func TestKernelTimeAccounted(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TimeSliceInsts = 500 // switch often to inflate OS time
	s, _ := newSched(cfg)
	s.Add(&loopRunner{pc: 0x400000, insts: 10})
	s.Add(&loopRunner{pc: 0x401000, insts: 10})
	st := s.Run(200000, nil)
	if st.KernelInsts == 0 {
		t.Fatal("no kernel instructions")
	}
	frac := st.OSFraction()
	if frac < 0.05 || frac > 0.6 {
		t.Fatalf("OS fraction %v outside plausible band", frac)
	}
}

func TestKernelEIPsAreKernel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TimeSliceInsts = 500
	s, _ := newSched(cfg)
	s.Add(&loopRunner{pc: 0x400000, insts: 10})
	s.Add(&loopRunner{pc: 0x401000, insts: 10})
	sawKernel, sawUser := false, false
	misattributed := 0
	s.Run(100000, func(ev *cpu.BlockEvent) {
		if addr.IsKernel(ev.PC) {
			sawKernel = true
		} else {
			sawUser = true
			if ev.PC != 0x400000 && ev.PC != 0x401000 {
				misattributed++
			}
		}
	})
	if !sawKernel || !sawUser {
		t.Fatalf("kernel=%v user=%v", sawKernel, sawUser)
	}
	if misattributed > 0 {
		t.Fatalf("%d user events at unexpected PCs", misattributed)
	}
}

func TestBlockingAndWakeup(t *testing.T) {
	s, _ := newSched(DefaultConfig())
	r := &ioRunner{pc: 0x400000, period: 20, wait: 5000}
	c := &loopRunner{pc: 0x401000, insts: 10}
	s.Add(r)
	s.Add(c)
	st := s.Run(300000, nil)
	if st.IOWaits == 0 {
		t.Fatal("no I/O waits recorded")
	}
	if r.blocked < 2 {
		t.Fatal("blocked thread never ran again after wakeup")
	}
	if c.retired < r.retired {
		t.Fatalf("CPU-bound thread (%d) ran less than I/O-bound (%d)", c.retired, r.retired)
	}
}

func TestAllBlockedAdvancesIdleTime(t *testing.T) {
	s, _ := newSched(DefaultConfig())
	s.Add(&ioRunner{pc: 0x400000, period: 5, wait: 100000})
	st := s.Run(50000, nil)
	if st.IdleCycles == 0 {
		t.Fatal("single blocking thread produced no idle time")
	}
	if st.IOWaits < 2 {
		t.Fatalf("thread did not resume after idle: %d waits", st.IOWaits)
	}
}

func TestObserverSeesEveryRetire(t *testing.T) {
	s, core := newSched(DefaultConfig())
	s.Add(&loopRunner{pc: 0x400000, insts: 10})
	var observed uint64
	s.Run(20000, func(ev *cpu.BlockEvent) { observed += uint64(ev.Insts) })
	if got := core.Counters().Insts; observed != got {
		t.Fatalf("observer saw %d insts, core retired %d", observed, got)
	}
}

func TestNoThreads(t *testing.T) {
	s, core := newSched(DefaultConfig())
	st := s.Run(1000, nil)
	if core.Counters().Insts != 0 || st.ContextSwitches != 0 {
		t.Fatal("empty scheduler did work")
	}
}

func TestThreadAttributionOnSamples(t *testing.T) {
	s, _ := newSched(DefaultConfig())
	a := s.Add(&loopRunner{pc: 0x400000, insts: 10})
	b := s.Add(&loopRunner{pc: 0x401000, insts: 10})
	wrong := 0
	s.Run(50000, func(ev *cpu.BlockEvent) {
		if !addr.IsKernel(ev.PC) {
			if (ev.PC == 0x400000 && int(ev.Thread) != a) || (ev.PC == 0x401000 && int(ev.Thread) != b) {
				wrong++
			}
		}
	})
	if wrong > 0 {
		t.Fatalf("%d events with wrong thread attribution", wrong)
	}
}
