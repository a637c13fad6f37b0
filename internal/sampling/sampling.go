// Package sampling implements the sampling techniques the paper's §7
// recommends per quadrant, and evaluates their CPI-estimation accuracy:
//
//   - uniform sampling [30]: every (m/n)-th interval;
//   - random sampling: n intervals chosen uniformly at random;
//   - phase-based sampling [27][28]: cluster EIPVs with K-means, simulate
//     one representative interval per cluster, weight by cluster size;
//   - stratified sampling [25]: like phase-based, but high-CPI-variance
//     clusters get extra samples (Neyman allocation over the full-series
//     cluster variances — an oracle no real sampled simulation has);
//   - two-phase stratified sampling (Ekman): cluster cheaply, spend a
//     small pilot (two samples per stratum) to *measure* per-stratum CPI
//     variance, then Neyman-allocate the remaining budget by those
//     observed variances — the honest, oracle-free successor to
//     stratified that §7 leaves open for the high-variance quadrants.
//
// All within-stratum draws are without replacement (partial Fisher–Yates),
// every accumulation runs in a fixed order, and each estimator is a pure
// function of (series, matrix, budget, seed) — byte-identical across runs
// and parallelism settings.
//
// The error metric is the relative error of the estimated mean CPI against
// the full run's true mean CPI — the quantity an architect using sampled
// simulation actually cares about.
package sampling

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/kmeans"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// Technique identifies a sampling strategy.
type Technique int

// The techniques of §7, plus the two-phase successor (Ekman, "CPU
// Simulation Using Two-Phase Stratified Sampling").
const (
	Uniform Technique = iota
	Random
	PhaseBased
	Stratified
	TwoPhase
)

func (t Technique) String() string {
	switch t {
	case Uniform:
		return "uniform"
	case Random:
		return "random"
	case PhaseBased:
		return "phase-based"
	case Stratified:
		return "stratified"
	case TwoPhase:
		return "two-phase"
	default:
		return fmt.Sprintf("Technique(%d)", int(t))
	}
}

// Techniques lists all strategies in presentation order.
func Techniques() []Technique {
	return []Technique{Uniform, Random, PhaseBased, Stratified, TwoPhase}
}

// Estimate approximates the mean of cpis using n sampled intervals with
// the given technique. mtx supplies the indexed EIPVs (kmeans.Matrix rows,
// one per interval) for the phase-driven techniques; it may be nil for
// Uniform/Random. It returns the estimate and the number of intervals
// actually simulated.
func Estimate(t Technique, cpis []float64, mtx *kmeans.Matrix, n int, seed uint64) (float64, int, error) {
	m := len(cpis)
	if m == 0 {
		return 0, 0, fmt.Errorf("sampling: empty CPI series")
	}
	if n < 1 {
		return 0, 0, fmt.Errorf("sampling: need at least one sample, got %d", n)
	}
	if n > m {
		n = m
	}
	switch t {
	case Uniform:
		// Systematic: every (m/n)-th interval starting mid-stride.
		stride := float64(m) / float64(n)
		sum := 0.0
		for i := 0; i < n; i++ {
			idx := int((float64(i) + 0.5) * stride)
			if idx >= m {
				idx = m - 1
			}
			sum += cpis[idx]
		}
		return sum / float64(n), n, nil

	case Random:
		rng := xrand.New(seed ^ 0x5a4d)
		perm := make([]int, m)
		rng.Perm(perm)
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += cpis[perm[i]]
		}
		return sum / float64(n), n, nil

	case PhaseBased:
		if mtx == nil || mtx.NumRows() != m {
			return 0, 0, fmt.Errorf("sampling: phase-based needs an EIPV matrix with %d rows", m)
		}
		res, err := mtx.Cluster(n, seed, 40)
		if err != nil {
			return 0, 0, err
		}
		reps := representatives(res, mtx)
		est := 0.0
		for c, rep := range reps {
			est += float64(res.Sizes[c]) / float64(m) * cpis[rep]
		}
		return est, len(reps), nil

	case Stratified:
		if mtx == nil || mtx.NumRows() != m {
			return 0, 0, fmt.Errorf("sampling: stratified needs an EIPV matrix with %d rows", m)
		}
		// Use fewer clusters and spend the remaining budget inside the
		// high-variance ones.
		k := n / 2
		if k < 1 {
			k = 1
		}
		res, err := mtx.Cluster(k, seed, 40)
		if err != nil {
			return 0, 0, err
		}
		return stratifiedEstimate(res, cpis, n, seed)

	case TwoPhase:
		if mtx == nil || mtx.NumRows() != m {
			return 0, 0, fmt.Errorf("sampling: two-phase needs an EIPV matrix with %d rows", m)
		}
		// Phase 1 clusters cheaply (EIPVs come from profiling, not from
		// detailed simulation) into K = n/4 strata, so the two-sample
		// pilot costs at most half the budget and the rest is left for
		// variance-targeted refinement.
		k := n / 4
		if k < 1 {
			k = 1
		}
		res, err := mtx.Cluster(k, seed, 40)
		if err != nil {
			return 0, 0, err
		}
		return twoPhaseEstimate(res, cpis, n, seed)

	default:
		return 0, 0, fmt.Errorf("sampling: unknown technique %d", int(t))
	}
}

// representatives picks, per cluster, the member closest to the cluster's
// centroid in EIPV space (the SimPoint rule).
//
// The kernel is dense over the matrix's feature space with a fixed
// accumulation order — centroid sums over rows ascending (features
// ascending within a row); each member's squared distance as a membership
// pass over its own features ascending, then a complement pass over the
// full feature range ascending skipping the member's features. Absent
// features have a centroid sum of exactly 0, contributing +0.0 — so the
// result is bit-identical to the map-based oracle the equivalence tests
// keep (referenceRepresentatives in reference_test.go), which walks its
// map keys in sorted order.
//
// Clusters with Sizes[c] == 0 are skipped explicitly: a member-relative
// distance against an empty cluster would divide by zero and propagate
// NaN into the representative choice. (Matrix.Cluster re-seeds empty
// clusters so its results never trigger this; the guard protects against
// hand-built Results.)
func representatives(res *kmeans.Result, mtx *kmeans.Matrix) []int {
	nf := mtx.NumFeatures()
	sums := make([]float64, res.K*nf) // cluster c's sums: sums[c*nf:(c+1)*nf]
	for i := 0; i < mtx.NumRows(); i++ {
		c := res.Assign[i]
		if res.Sizes[c] == 0 {
			continue
		}
		row := sums[c*nf : (c+1)*nf]
		feat, cnt := mtx.Row(i)
		for j, f := range feat {
			row[f] += float64(cnt[j])
		}
	}
	best := make([]int, res.K)
	bestD := make([]float64, res.K)
	for c := range best {
		best[c] = -1
		bestD[c] = math.Inf(1)
	}
	inRow := make([]bool, nf)
	for i := 0; i < mtx.NumRows(); i++ {
		c := res.Assign[i]
		if res.Sizes[c] == 0 {
			continue
		}
		n := float64(res.Sizes[c])
		row := sums[c*nf : (c+1)*nf]
		feat, cnt := mtx.Row(i)
		d := 0.0
		for j, f := range feat {
			mu := row[f] / n
			diff := float64(cnt[j]) - mu
			d += diff * diff
			inRow[f] = true
		}
		for f := 0; f < nf; f++ {
			if inRow[f] {
				continue
			}
			mu := row[f] / n
			d += mu * mu
		}
		for _, f := range feat {
			inRow[f] = false
		}
		if d < bestD[c] {
			bestD[c] = d
			best[c] = i
		}
	}
	out := best[:0]
	for _, b := range best {
		if b >= 0 {
			out = append(out, b)
		}
	}
	return out
}

// clusterMembers groups interval indices by cluster assignment, ascending
// within each cluster.
func clusterMembers(res *kmeans.Result) [][]int {
	members := make([][]int, res.K)
	for i, a := range res.Assign {
		members[a] = append(members[a], i)
	}
	return members
}

// drawWithoutReplacement advances a partial Fisher–Yates over mem:
// mem[:drawn] holds the samples taken so far, mem[drawn:] the remaining
// pool. It draws up to k more distinct members (mem is permuted in place)
// and returns the new drawn count — never more than len(mem), so a
// stratum can never be sampled past its population.
func drawWithoutReplacement(rng *xrand.Rand, mem []int, drawn, k int) int {
	for i := 0; i < k && drawn < len(mem); i++ {
		j := drawn + rng.Intn(len(mem)-drawn)
		mem[drawn], mem[j] = mem[j], mem[drawn]
		drawn++
	}
	return drawn
}

// allocateProportional distributes extra samples across strata
// proportionally to weights (largest-remainder rounding), never exceeding
// any stratum's remaining capacity. Budget a saturated stratum cannot
// absorb is redistributed over the strata that still have room, so the
// whole budget is spent whenever capacity exists; if every stratum with
// room has zero weight, the round falls back to weighting by free
// capacity so a weightless allocation still spends the budget. All ties
// break toward the lower stratum index (stable sort on the fractional
// remainders), making the result a pure function of its arguments.
func allocateProportional(extra int, weights []float64, capacity []int) []int {
	alloc := make([]int, len(weights))
	type rem struct {
		c int
		f float64
	}
	rems := make([]rem, 0, len(weights))
	for extra > 0 {
		total := 0.0
		roomy := 0
		for c := range capacity {
			if capacity[c] > alloc[c] {
				roomy++
				total += weights[c]
			}
		}
		if roomy == 0 {
			break
		}
		w := func(c int) float64 {
			if total > 0 {
				return weights[c]
			}
			return float64(capacity[c] - alloc[c])
		}
		wTotal := total
		if wTotal == 0 {
			for c := range capacity {
				if capacity[c] > alloc[c] {
					wTotal += float64(capacity[c] - alloc[c])
				}
			}
		}
		given := 0
		rems = rems[:0]
		for c := range capacity {
			room := capacity[c] - alloc[c]
			if room <= 0 || w(c) == 0 {
				continue
			}
			ideal := float64(extra) * w(c) / wTotal
			g := int(ideal)
			if g > room {
				g = room
			}
			alloc[c] += g
			given += g
			if g < room {
				rems = append(rems, rem{c, ideal - float64(g)})
			}
		}
		extra -= given
		sort.SliceStable(rems, func(i, j int) bool { return rems[i].f > rems[j].f })
		for _, r := range rems {
			if extra == 0 {
				break
			}
			if capacity[r.c] > alloc[r.c] {
				alloc[r.c]++
				extra--
			}
		}
	}
	return alloc
}

// stratifiedEstimate allocates the n-interval budget across clusters
// proportionally to size × stddev (Neyman), sampling within each cluster
// uniformly without replacement and weighting each cluster's sample mean
// by its size. The cluster variances come from kmeans.ClusterCPIVariance
// over the full series — an oracle a real sampled simulation would not
// have; twoPhaseEstimate is the honest variant that measures them from a
// pilot.
//
// Two historical bugs are fixed here and locked by regression tests:
// within-cluster draws used modular arithmetic over a single Intn and
// could pick the same interval twice (overstating the distinct intervals
// behind Eval.Simulated), and when every cluster's CPI variance was zero
// the n−K remaining budget was silently dropped. Draws are now a partial
// Fisher–Yates, and the allocation falls back to proportional-to-size
// when the Neyman weights carry no signal.
func stratifiedEstimate(res *kmeans.Result, cpis []float64, n int, seed uint64) (float64, int, error) {
	m := len(cpis)
	vars := kmeans.ClusterCPIVariance(res, cpis)
	members := clusterMembers(res)
	// Every non-empty cluster gets one guaranteed sample (ascending order
	// until the budget runs out); the remainder follows the Neyman
	// weights, bounded by each cluster's population.
	alloc := make([]int, res.K)
	capacity := make([]int, res.K)
	used := 0
	for c, mem := range members {
		capacity[c] = len(mem)
		if len(mem) > 0 && used < n {
			alloc[c] = 1
			capacity[c]--
			used++
		}
	}
	weights := make([]float64, res.K)
	total := 0.0
	for c := range weights {
		weights[c] = float64(res.Sizes[c]) * math.Sqrt(vars[c])
		total += weights[c]
	}
	if total == 0 {
		// All cluster variances are zero: Neyman has no signal, but the
		// caller's budget must still be spent — fall back to allocating
		// the remainder proportionally to cluster size.
		for c := range weights {
			weights[c] = float64(res.Sizes[c])
		}
	}
	extra := allocateProportional(n-used, weights, capacity)
	rng := xrand.New(seed ^ 0x57a7)
	est := 0.0
	simulated := 0
	for c, mem := range members {
		k := alloc[c] + extra[c]
		if k == 0 || len(mem) == 0 {
			continue
		}
		drawn := drawWithoutReplacement(rng, mem, 0, k)
		sum := 0.0
		for _, idx := range mem[:drawn] {
			sum += cpis[idx]
		}
		simulated += drawn
		est += float64(res.Sizes[c]) / float64(m) * (sum / float64(drawn))
	}
	return est, simulated, nil
}

// twoPhaseEstimate is the Ekman two-phase estimator over pre-clustered
// strata: a pilot of up to two samples per stratum measures each
// stratum's CPI variance, then the remaining budget is Neyman-allocated
// by those *observed* variances. Every CPI this estimator touches is one
// of its own samples — unlike stratifiedEstimate it never reads the full
// series, so its error column is an honest account of what the technique
// achieves in practice.
//
// Pilot samples are not discarded: they were simulated, so they join the
// phase-2 samples in each stratum's mean. All draws are without
// replacement (one partial Fisher–Yates per stratum, continued across
// the two phases); strata are visited in ascending order in both phases,
// the allocation is a pure function of the pilot, and every accumulation
// runs in a fixed order — the estimate is byte-identical across runs,
// serial or parallel, for a fixed seed.
func twoPhaseEstimate(res *kmeans.Result, cpis []float64, n int, seed uint64) (float64, int, error) {
	m := len(cpis)
	members := clusterMembers(res)
	rng := xrand.New(seed ^ 0x2fa5e)
	drawn := make([]int, res.K)
	acc := make([]stats.Acc, res.K)
	used := 0
	// Phase 1: the pilot.
	for c, mem := range members {
		if len(mem) == 0 || used >= n {
			continue
		}
		p := 2
		if p > len(mem) {
			p = len(mem)
		}
		if p > n-used {
			p = n - used
		}
		drawn[c] = drawWithoutReplacement(rng, mem, 0, p)
		for _, idx := range mem[:drawn[c]] {
			acc[c].Add(cpis[idx])
		}
		used += drawn[c]
	}
	// Phase 2: Neyman allocation over the observed pilot variances.
	weights := make([]float64, res.K)
	capacity := make([]int, res.K)
	total := 0.0
	for c, mem := range members {
		capacity[c] = len(mem) - drawn[c]
		weights[c] = float64(res.Sizes[c]) * math.Sqrt(acc[c].SampleVar())
		total += weights[c]
	}
	if total == 0 {
		// The pilot observed no variance anywhere: fall back to
		// proportional-to-size so the remaining budget is still spent.
		for c := range weights {
			weights[c] = float64(res.Sizes[c])
		}
	}
	extra := allocateProportional(n-used, weights, capacity)
	est := 0.0
	weightSum := 0.0
	simulated := 0
	for c, mem := range members {
		if extra[c] > 0 {
			prev := drawn[c]
			drawn[c] = drawWithoutReplacement(rng, mem, prev, extra[c])
			for _, idx := range mem[prev:drawn[c]] {
				acc[c].Add(cpis[idx])
			}
		}
		if drawn[c] == 0 {
			continue
		}
		simulated += drawn[c]
		w := float64(res.Sizes[c]) / float64(m)
		weightSum += w
		est += w * acc[c].Mean()
	}
	// When the budget cannot even pilot every stratum (only possible with
	// a hand-built Result: Estimate sizes K = n/4, so 2K <= n/2), the
	// unsampled strata carry no information; renormalize over the strata
	// actually observed instead of silently biasing the estimate low.
	if weightSum > 0 {
		est /= weightSum
	}
	return est, simulated, nil
}

// RequiredSamples returns the number of random interval samples needed so
// the 95% confidence half-width is at most targetRel of the mean — the
// "systematic way to compute the optimal frequency of sampling" the paper
// credits to the statistical-sampling line of work (§8, [30]). The result
// is clamped to [2, len(cpis)] (a full census always suffices).
func RequiredSamples(cpis []float64, targetRel float64) (int, error) {
	m := len(cpis)
	if m == 0 {
		return 0, fmt.Errorf("sampling: empty CPI series")
	}
	if targetRel <= 0 {
		return 0, fmt.Errorf("sampling: target relative error must be positive, got %v", targetRel)
	}
	mean := stats.Mean(cpis)
	if mean == 0 {
		return 2, nil
	}
	variance := stats.Var(cpis)
	// Solve 1.96*sqrt(v/n)*fpc <= targetRel*mean with the finite
	// population correction fpc = sqrt((m-n)/(m-1)); without the
	// correction first, then adjust: n0 = (1.96/targetRel/mean)^2 * v,
	// n = n0 / (1 + (n0-1)/m)  (standard survey-sampling form).
	z := 1.96 / (targetRel * mean)
	n0 := z * z * variance
	n := n0 / (1 + (n0-1)/float64(m))
	needed := int(math.Ceil(n))
	if needed < 2 {
		needed = 2
	}
	if needed > m {
		needed = m
	}
	return needed, nil
}

// Eval is one technique's accuracy on one workload.
type Eval struct {
	Technique Technique
	Estimate  float64
	TrueMean  float64
	// RelErr is |estimate - truth| / |truth| — the denominator is the
	// truth's magnitude, so a negative-mean series cannot yield a
	// negative "relative error". When the true mean is zero the ratio is
	// undefined and RelErr is NaN (check with math.IsNaN, or use
	// Defined); it is never silently reported as a perfect 0.
	RelErr float64
	// Simulated is the number of intervals the technique would simulate.
	Simulated int
}

// Evaluate runs every technique with the same interval budget and reports
// each one's relative CPI-estimation error. mtx supplies the indexed
// EIPVs for the phase-driven techniques.
func Evaluate(cpis []float64, mtx *kmeans.Matrix, budget int, seed uint64) ([]Eval, error) {
	truth := stats.Mean(cpis)
	out := make([]Eval, 0, 4)
	for _, tech := range Techniques() {
		est, sim, err := Estimate(tech, cpis, mtx, budget, seed)
		if err != nil {
			return nil, err
		}
		rel := math.NaN() // undefined against a zero truth
		if truth != 0 {
			rel = math.Abs(est-truth) / math.Abs(truth)
		}
		out = append(out, Eval{Technique: tech, Estimate: est, TrueMean: truth, RelErr: rel, Simulated: sim})
	}
	return out, nil
}
