// Package branch implements the branch predictors used by the CPU model.
//
// The paper attributes part of the front-end (FE) stall component to branch
// mispredictions, and explains gcc's Q-III placement by its high
// misprediction rate; the predictors here produce those effects from actual
// outcome streams rather than from assumed rates.
package branch

import "fmt"

// counterPredict interprets a 2-bit saturating counter.
func counterPredict(c uint8) bool { return c >= 2 }

func counterUpdate(c uint8, taken bool) uint8 {
	if taken {
		if c < 3 {
			return c + 1
		}
		return 3
	}
	if c > 0 {
		return c - 1
	}
	return 0
}

// Gshare XORs a global history register into the PC index, capturing
// correlated branch behaviour.
type Gshare struct {
	table   []uint8
	mask    uint64
	history uint64
}

// NewGshare returns a gshare predictor with 2^bits entries and bits of
// global history. It panics if bits is not in [1, 30].
func NewGshare(bits int) *Gshare {
	if bits < 1 || bits > 30 {
		panic(fmt.Sprintf("branch: NewGshare bits=%d", bits))
	}
	t := make([]uint8, 1<<bits)
	for i := range t {
		t[i] = 2
	}
	return &Gshare{table: t, mask: uint64(len(t) - 1)}
}

func (g *Gshare) index(pc uint64) uint64 { return ((pc >> 2) ^ g.history) & g.mask }

// Apply predicts, trains, and reports whether the prediction was wrong, in
// one call: the retirement hot loop uses it to compute the table index once
// instead of twice (a separate predict and update). branch_test.go keeps
// that two-step form as its oracle.
func (g *Gshare) Apply(pc uint64, taken bool) (mispredicted bool) {
	i := g.index(pc)
	c := g.table[i]
	pred := counterPredict(c)
	g.table[i] = counterUpdate(c, taken)
	g.history = ((g.history << 1) | boolBit(taken)) & g.mask
	return pred != taken
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
