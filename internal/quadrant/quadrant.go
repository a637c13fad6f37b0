// Package quadrant implements the paper's contribution in §7: classifying
// workloads on the two-dimensional (CPI variance, CPI predictability)
// plane and recommending the best-suited sampling technique per quadrant.
//
//	                 RE <= 0.15      RE > 0.15
//	variance <= 0.01    Q-II            Q-I
//	variance >  0.01    Q-IV            Q-III
//
// (Figure 13; the paper draws variance on X and predictability on Y.)
package quadrant

import (
	"fmt"

	"repro/internal/sampling"
)

// The paper's thresholds (§7).
const (
	VarianceThreshold = 0.01
	REThreshold       = 0.15
)

// Quadrant is one cell of the classification.
type Quadrant int

// The four quadrants of Figure 13.
const (
	QI Quadrant = iota + 1
	QII
	QIII
	QIV
)

func (q Quadrant) String() string {
	switch q {
	case QI:
		return "Q-I"
	case QII:
		return "Q-II"
	case QIII:
		return "Q-III"
	case QIV:
		return "Q-IV"
	default:
		return fmt.Sprintf("Quadrant(%d)", int(q))
	}
}

// Classify places a workload by its interval-CPI variance and relative
// error (RE_kopt from the regression-tree cross-validation).
func Classify(cpiVariance, re float64) Quadrant {
	lowVar := cpiVariance <= VarianceThreshold
	strong := re <= REThreshold
	switch {
	case lowVar && !strong:
		return QI
	case lowVar && strong:
		return QII
	case !lowVar && !strong:
		return QIII
	default:
		return QIV
	}
}

// Recommend returns the paper's §7 sampling guidance for a quadrant.
func Recommend(q Quadrant) sampling.Technique {
	switch q {
	case QI:
		// Low variance, no code-CPI relationship: a few uniform samples
		// capture CPI ("simple sampling techniques ... work well even for
		// a complex workload like ODB-C").
		return sampling.Uniform
	case QII:
		// Phases exist but variance is insignificant: uniform sampling is
		// as good as phase-based and simpler.
		return sampling.Uniform
	case QIII:
		// High variance that code cannot explain: don't trust the code
		// clustering — pilot-measure each stratum's CPI variance and
		// Neyman-allocate the budget by what was *observed* (Ekman's
		// two-phase stratified sampling). Measured on q18 across seeds,
		// two-phase is both more accurate on average and far more
		// consistent than oracle-variance stratified (results/
		// section7.txt; EXPERIMENTS.md §7).
		return sampling.TwoPhase
	case QIV:
		// High variance, strong phases: phase-based sampling shines.
		return sampling.PhaseBased
	default:
		return sampling.Random
	}
}

// Rationale returns the paper's one-line justification per quadrant.
func Rationale(q Quadrant) string {
	switch q {
	case QI:
		return "insignificant CPI variance; EIPVs cannot explain it, but a few random/uniform samples suffice"
	case QII:
		return "subtle CPI changes are captured by EIPVs, yet variance is too small for phase-based sampling to pay off"
	case QIII:
		return "high CPI variance uncorrelated with code; pilot-measure per-stratum variance and spend the budget where it was observed (two-phase)"
	case QIV:
		return "high CPI variance with strong phase behavior; a few phase-based samples capture CPI"
	default:
		return "unknown"
	}
}
