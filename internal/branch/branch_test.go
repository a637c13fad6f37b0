package branch

import (
	"testing"

	"repro/internal/xrand"
)

// Predict returns the predicted direction for the branch at pc. With
// Update it is the two-step form of Apply, kept here as Apply's oracle.
func (g *Gshare) Predict(pc uint64) bool { return counterPredict(g.table[g.index(pc)]) }

// Update trains the predictor with the actual outcome.
func (g *Gshare) Update(pc uint64, taken bool) {
	i := g.index(pc)
	g.table[i] = counterUpdate(g.table[i], taken)
	g.history = ((g.history << 1) | boolBit(taken)) & g.mask
}

// mispredictRate feeds n outcomes of one branch through Apply and returns
// the fraction it mispredicted.
func mispredictRate(g *Gshare, pc uint64, n int, taken func(i int) bool) float64 {
	wrong := 0
	for i := 0; i < n; i++ {
		if g.Apply(pc, taken(i)) {
			wrong++
		}
	}
	return float64(wrong) / float64(n)
}

func TestCounterSaturation(t *testing.T) {
	c := uint8(2)
	for i := 0; i < 10; i++ {
		c = counterUpdate(c, true)
	}
	if c != 3 {
		t.Fatalf("counter did not saturate at 3: %d", c)
	}
	for i := 0; i < 10; i++ {
		c = counterUpdate(c, false)
	}
	if c != 0 {
		t.Fatalf("counter did not saturate at 0: %d", c)
	}
}

// TestApplyMatchesPredictUpdate: on a random stream over a few PCs, Apply
// reports a misprediction exactly when Predict disagrees with the outcome,
// and leaves the table and history as Update does.
func TestApplyMatchesPredictUpdate(t *testing.T) {
	r := xrand.New(5)
	got, want := NewGshare(8), NewGshare(8)
	for i := 0; i < 20000; i++ {
		pc := 0x400000 + uint64(r.Intn(64))*4
		taken := r.Bool(0.3 + 0.4*float64(pc>>2&1))
		wrong := want.Predict(pc) != taken
		want.Update(pc, taken)
		if got.Apply(pc, taken) != wrong {
			t.Fatalf("step %d: Apply's misprediction flag differs", i)
		}
		if got.history != want.history {
			t.Fatalf("step %d: history %#x, want %#x", i, got.history, want.history)
		}
	}
	for i := range got.table {
		if got.table[i] != want.table[i] {
			t.Fatalf("table[%d] = %d, want %d", i, got.table[i], want.table[i])
		}
	}
}

func TestGshareLearnsAlwaysTaken(t *testing.T) {
	p := NewGshare(10)
	pc := uint64(0x400100)
	r := mispredictRate(p, pc, 100, func(int) bool { return true })
	if !p.Predict(pc) {
		t.Fatal("did not learn always-taken")
	}
	if r > 0.02 {
		t.Fatalf("always-taken mispredict rate %v", r)
	}
}

func TestGshareLearnsAlwaysNotTaken(t *testing.T) {
	p := NewGshare(10)
	pc := uint64(0x400200)
	for i := 0; i < 100; i++ {
		p.Update(pc, false)
	}
	if p.Predict(pc) {
		t.Fatal("did not learn never-taken")
	}
}

func TestGshareLoopPattern(t *testing.T) {
	// A loop branch taken 15 of 16 times should mispredict ~1/16.
	p := NewGshare(12)
	r := mispredictRate(p, 0x400300, 1600, func(i int) bool { return i%16 != 15 })
	if r > 0.09 {
		t.Fatalf("loop mispredict rate %v, want ~0.0625", r)
	}
}

func TestGshareRandomIsHard(t *testing.T) {
	r := xrand.New(1)
	rate := mispredictRate(NewGshare(12), 0x400400, 10000, func(int) bool { return r.Bool(0.5) })
	if rate < 0.4 {
		t.Fatalf("random branch rate %v, expected near 0.5", rate)
	}
}

func TestGshareLearnsAlternation(t *testing.T) {
	// Alternating pattern T,N,T,N keeps a lone 2-bit counter at the
	// weakly-taken boundary, but gshare's history gives each phase its
	// own counter.
	r := mispredictRate(NewGshare(12), 0x400500, 4000, func(i int) bool { return i%2 == 0 })
	if r > 0.05 {
		t.Fatalf("gshare rate %v on trivially correlated pattern", r)
	}
}

func TestDistinctPCsIndependent(t *testing.T) {
	p := NewGshare(12)
	a, b := uint64(0x400000), uint64(0x400004)
	for i := 0; i < 50; i++ {
		p.Update(a, true)
		p.Update(b, false)
	}
	if !p.Predict(a) {
		t.Fatal("aliasing between distinct PCs in large table")
	}
	p.Update(a, true)
	if p.Predict(b) {
		t.Fatal("aliasing between distinct PCs in large table")
	}
}

func TestConstructorPanics(t *testing.T) {
	for _, bits := range []int{0, -1, 31} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewGshare(%d): expected panic", bits)
				}
			}()
			NewGshare(bits)
		}()
	}
}
