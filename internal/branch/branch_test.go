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
	if counterPredict(g.table[i]) == taken {
		g.stats.Correct++
	} else {
		g.stats.Wrong++
	}
	g.table[i] = counterUpdate(g.table[i], taken)
	g.history = ((g.history << 1) | boolBit(taken)) & g.mask
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
// and leaves the table, history and counters as Update does.
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
		if got.history != want.history || got.stats != want.stats {
			t.Fatalf("step %d: state differs: history %#x/%#x stats %+v/%+v", i, got.history, want.history, got.stats, want.stats)
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
	for i := 0; i < 100; i++ {
		p.Update(pc, true)
	}
	if !p.Predict(pc) {
		t.Fatal("did not learn always-taken")
	}
	if r := p.Stats().MispredictRate(); r > 0.02 {
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
	pc := uint64(0x400300)
	for i := 0; i < 1600; i++ {
		p.Update(pc, i%16 != 15)
	}
	r := p.Stats().MispredictRate()
	if r > 0.09 {
		t.Fatalf("loop mispredict rate %v, want ~0.0625", r)
	}
}

func TestGshareRandomIsHard(t *testing.T) {
	p := NewGshare(12)
	r := xrand.New(1)
	pc := uint64(0x400400)
	for i := 0; i < 10000; i++ {
		p.Update(pc, r.Bool(0.5))
	}
	rate := p.Stats().MispredictRate()
	if rate < 0.4 {
		t.Fatalf("random branch rate %v, expected near 0.5", rate)
	}
}

func TestGshareLearnsAlternation(t *testing.T) {
	// Alternating pattern T,N,T,N keeps a lone 2-bit counter at the
	// weakly-taken boundary, but gshare's history gives each phase its
	// own counter.
	gs := NewGshare(12)
	pc := uint64(0x400500)
	for i := 0; i < 4000; i++ {
		gs.Update(pc, i%2 == 0)
	}
	if gs.Stats().MispredictRate() > 0.05 {
		t.Fatalf("gshare rate %v on trivially correlated pattern", gs.Stats().MispredictRate())
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

func TestStatsAccounting(t *testing.T) {
	p := NewGshare(8)
	for i := 0; i < 10; i++ {
		p.Update(0x400000, true)
	}
	s := p.Stats()
	if s.Total() != 10 {
		t.Fatalf("Total = %d", s.Total())
	}
	if s.Correct+s.Wrong != 10 {
		t.Fatalf("Correct+Wrong = %d", s.Correct+s.Wrong)
	}
	var empty Stats
	if empty.MispredictRate() != 0 {
		t.Fatal("empty rate != 0")
	}
	if empty.String() == "" {
		t.Fatal("empty String")
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
