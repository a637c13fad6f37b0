package quadrant

import (
	"testing"

	"repro/internal/sampling"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		variance, re float64
		want         Quadrant
	}{
		{0.005, 0.9, QI},
		{0.005, 0.1, QII},
		{0.5, 0.9, QIII},
		{0.5, 0.1, QIV},
		// Boundary values belong to the low/strong side (<=).
		{VarianceThreshold, REThreshold, QII},
		{VarianceThreshold, REThreshold + 0.001, QI},
		{VarianceThreshold + 0.001, REThreshold, QIV},
	}
	for _, c := range cases {
		if got := Classify(c.variance, c.re); got != c.want {
			t.Errorf("Classify(%v, %v) = %v, want %v", c.variance, c.re, got, c.want)
		}
	}
}

func TestStrings(t *testing.T) {
	names := map[Quadrant]string{QI: "Q-I", QII: "Q-II", QIII: "Q-III", QIV: "Q-IV"}
	for q, s := range names {
		if q.String() != s {
			t.Errorf("%d.String() = %q", int(q), q.String())
		}
	}
}

func TestRecommendations(t *testing.T) {
	// The paper's guidance: uniform for the low-variance quadrants,
	// phase-based only where variance is high AND explained.
	if Recommend(QI) != sampling.Uniform || Recommend(QII) != sampling.Uniform {
		t.Fatal("low-variance quadrants should use uniform sampling")
	}
	if Recommend(QIV) != sampling.PhaseBased {
		t.Fatal("Q-IV should use phase-based sampling")
	}
	if Recommend(QIII) == sampling.PhaseBased {
		t.Fatal("Q-III must not rely on phase-based sampling")
	}
	// The post-paper revision (Ekman): Q-III's unexplained variance is
	// hedged by measuring it, not by trusting the oracle-variance
	// stratified allocation.
	if Recommend(QIII) != sampling.TwoPhase {
		t.Fatal("Q-III should use two-phase stratified sampling")
	}
	for _, q := range []Quadrant{QI, QII, QIII, QIV} {
		if Rationale(q) == "" || Rationale(q) == "unknown" {
			t.Errorf("missing rationale for %v", q)
		}
	}
}
