package profiler

import (
	"slices"
	"testing"
	"unsafe"

	"repro/internal/addr"
	"repro/internal/cpu"
	"repro/internal/osim"
	"repro/internal/workload"
)

// fixture registers a trivial two-phase workload once.
func init() {
	workload.Register("prof-test", func() workload.Workload { return &testWL{} })
}

type testWL struct{}

func (*testWL) Name() string         { return "prof-test" }
func (*testWL) SamplePeriod() uint64 { return 100 }
func (*testWL) Setup(sched *osim.Sched, space *addr.Space, seed uint64) {
	code := workload.NewCodeRegion(space, "t", 8)
	i := 0
	sched.Add(workload.NewRunner(workload.GenFunc(func(e *workload.Emitter) {
		i++
		e.EmitBlock(code.PC(i%7), 10, 0.5)
	})))
}

func TestSamplePeriodRespected(t *testing.T) {
	res, err := CollectByName("prof-test", CollectOptions{Seed: 1, Intervals: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Profile
	// 2 intervals x 100_000 insts at one sample per 100 insts.
	want := 2 * int(workload.IntervalInsts) / 100
	if len(p.Samples) < want-2 || len(p.Samples) > want+2 {
		t.Fatalf("%d samples, want ~%d", len(p.Samples), want)
	}
	// Counter snapshots are monotone in instructions and near the period
	// boundaries.
	for i := 1; i < len(p.Samples); i++ {
		d := p.Samples[i].Counters.Insts - p.Samples[i-1].Counters.Insts
		if d < 90 || d > 200 {
			t.Fatalf("inter-sample instruction gap %d at %d", d, i)
		}
	}
}

func TestSamplesCarryEIPsAndThreads(t *testing.T) {
	res, err := CollectByName("prof-test", CollectOptions{Seed: 1, Intervals: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Profile.Samples {
		if s.EIP == 0 {
			t.Fatal("sample without EIP")
		}
	}
	if res.Profile.UniqueEIPs() < 7 {
		t.Fatalf("unique EIPs = %d, want >= 7", res.Profile.UniqueEIPs())
	}
}

func TestCollectErrors(t *testing.T) {
	if _, err := CollectByName("no-such", CollectOptions{Intervals: 1}); err == nil {
		t.Fatal("unknown workload did not error")
	}
	if _, err := CollectByName("prof-test", CollectOptions{Intervals: 0}); err == nil {
		t.Fatal("zero intervals did not error")
	}
}

func TestPeriodOverride(t *testing.T) {
	a, _ := CollectByName("prof-test", CollectOptions{Seed: 1, Intervals: 1})
	b, _ := CollectByName("prof-test", CollectOptions{Seed: 1, Intervals: 1, PeriodOverride: 1000})
	if len(b.Profile.Samples) >= len(a.Profile.Samples) {
		t.Fatalf("coarser period produced more samples: %d vs %d",
			len(b.Profile.Samples), len(a.Profile.Samples))
	}
	if b.Profile.Period != 1000 {
		t.Fatalf("period not recorded: %d", b.Profile.Period)
	}
}

func TestMachineSelection(t *testing.T) {
	res, err := CollectByName("prof-test", CollectOptions{Seed: 1, Intervals: 1, Machine: cpu.PentiumIV()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile.Machine != "pentium4" {
		t.Fatalf("machine = %q", res.Profile.Machine)
	}
}

func TestDeterministicCollection(t *testing.T) {
	a, _ := CollectByName("prof-test", CollectOptions{Seed: 9, Intervals: 1})
	b, _ := CollectByName("prof-test", CollectOptions{Seed: 9, Intervals: 1})
	if len(a.Profile.Samples) != len(b.Profile.Samples) {
		t.Fatal("sample counts differ")
	}
	for i := range a.Profile.Samples {
		if a.Profile.Samples[i] != b.Profile.Samples[i] {
			t.Fatalf("sample %d differs", i)
		}
	}
}

func TestZeroPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(cpu.New(cpu.Itanium2()), 0)
}

// TestSampleSize pins the sample record at 64 bytes: the EIP, the thread
// and the six counters. A collection keeps one per interrupt and every
// profile-store hit decodes one per sample, so its size scales both.
func TestSampleSize(t *testing.T) {
	if got := unsafe.Sizeof(Sample{}); got != 64 {
		t.Fatalf("Sample is %d bytes, want 64", got)
	}
}

// refAfter is the copying filter: every sample taken at or beyond insts,
// appended to a fresh slice.
func refAfter(p *Profile, insts uint64) *Profile {
	out := &Profile{Workload: p.Workload, Machine: p.Machine, Period: p.Period}
	for _, s := range p.Samples {
		if s.Counters.Insts >= insts {
			out.Samples = append(out.Samples, s)
		}
	}
	return out
}

// checkAfter: After(insts) keeps what refAfter keeps, as a view of p's
// samples.
func checkAfter(t *testing.T, p *Profile, insts uint64) {
	t.Helper()
	got, want := p.After(insts), refAfter(p, insts)
	if got.Workload != want.Workload || got.Machine != want.Machine || got.Period != want.Period ||
		!slices.Equal(got.Samples, want.Samples) {
		t.Fatalf("After(%d) keeps %d samples, the filter %d", insts, len(got.Samples), len(want.Samples))
	}
	if n := len(got.Samples); n > 0 && &got.Samples[n-1] != &p.Samples[len(p.Samples)-1] {
		t.Fatalf("After(%d) copied the samples", insts)
	}
}

func TestAfterSharesSuffix(t *testing.T) {
	hand := &Profile{Workload: "w", Machine: "m", Period: 10}
	for _, insts := range []uint64{10, 20, 20, 35} { // one block can cross two sampling points
		hand.Samples = append(hand.Samples, Sample{EIP: insts, Counters: cpu.Counters{Insts: insts, Cycles: 2 * insts}})
	}
	// Before the first sample, between two, equal to one (and to a
	// repeated one), and past the last.
	for _, insts := range []uint64{0, 5, 15, 20, 35, 36} {
		checkAfter(t, hand, insts)
	}

	res, err := CollectByName("prof-test", CollectOptions{Seed: 1, Intervals: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Profile.Samples
	first, last := s[0].Counters.Insts, s[len(s)-1].Counters.Insts
	mid := s[len(s)/2].Counters.Insts
	for _, insts := range []uint64{first - 1, mid - 1, mid, last + 1} {
		checkAfter(t, res.Profile, insts)
	}
}
