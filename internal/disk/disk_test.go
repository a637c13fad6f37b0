package disk

import (
	"testing"

	"repro/internal/xrand"
)

func TestSequentialCheaperThanRandom(t *testing.T) {
	a := NewArray(DefaultData(), 4, xrand.New(1))
	// Prime, then read the stride-n successor on the same disk.
	a.Read(0)
	seq := a.Read(4)
	rnd := a.Read(1003)
	if seq >= rnd {
		t.Fatalf("sequential read (%d) not cheaper than random (%d)", seq, rnd)
	}
}

func TestStriping(t *testing.T) {
	a := NewArray(DefaultData(), 8, xrand.New(2))
	// Consecutive blocks land on different disks, so block i+1 after block
	// i is a random access (different disk, no history) not sequential.
	a.Read(0)
	if l := a.Read(1); l == uint64(DefaultData().Sequential) {
		t.Fatalf("cross-disk consecutive block serviced at the sequential rate (%d cycles)", l)
	}
}

func TestLatencyPositiveAndBounded(t *testing.T) {
	a := NewArray(DefaultData(), 4, xrand.New(3))
	for i := uint64(0); i < 1000; i++ {
		l := a.Read(i * 17)
		if l < uint64(DefaultData().Sequential) {
			t.Fatalf("latency %d below sequential floor", l)
		}
		if l > 10*uint64(DefaultData().SeekMean) {
			t.Fatalf("latency %d implausibly large", l)
		}
	}
}

func TestWriteCounted(t *testing.T) {
	a := NewArray(DefaultLog(), 1, xrand.New(4))
	seq := uint64(DefaultLog().Sequential)
	if l := a.Write(0); l < seq {
		t.Fatalf("first write latency %d below the sequential floor %d", l, seq)
	}
	if l := a.Write(1); l != seq {
		t.Fatalf("appending write latency %d, want the sequential %d", l, seq)
	}
}

func TestLogAppendsSequential(t *testing.T) {
	a := NewArray(DefaultLog(), 1, xrand.New(5))
	a.Write(10)
	seq := 0
	for i := uint64(11); i < 20; i++ {
		if a.Write(i) == uint64(DefaultLog().Sequential) {
			seq++
		}
	}
	if seq < 8 {
		t.Fatalf("only %d of 9 log appends serviced at the sequential rate", seq)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []uint64 {
		a := NewArray(DefaultData(), 4, xrand.New(9))
		out := make([]uint64, 50)
		for i := range out {
			out[i] = a.Read(uint64(i * 13))
		}
		return out
	}
	x, y := run(), run()
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("nondeterministic latency at %d: %d vs %d", i, x[i], y[i])
		}
	}
}

func TestConstructorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n=0")
		}
	}()
	NewArray(DefaultData(), 0, xrand.New(1))
}
