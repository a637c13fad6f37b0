package db

import (
	"slices"

	"repro/internal/heapfile"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// Tuple is the engine's row currency: a key, an auxiliary value, and a
// provenance field (usually the source row id).
type Tuple struct {
	K, A, B int64
}

// Status is an operator step outcome.
type Status int

// Operator step outcomes.
const (
	// HaveRow: a tuple was produced.
	HaveRow Status = iota
	// NeedMore: the operator did bounded internal work (emitting events)
	// but has no tuple yet; call Step again.
	NeedMore
	// EOF: the stream is exhausted until Reset.
	EOF
)

// Op is a Volcano-style operator. Step does a bounded amount of real work,
// reporting it to the Exec, and yields at most one tuple. Reset rewinds the
// operator (and its children) so a plan can be executed repeatedly.
type Op interface {
	Step(x *Exec) (Tuple, Status)
	Reset()
}

// Pred is a cheap deterministic predicate over a row: keep rows where
// row[Col] % Mod < Keep. The zero Pred keeps everything.
type Pred struct {
	Col       int
	Mod, Keep int64
}

// Match evaluates the predicate.
func (p Pred) Match(row []int64) bool {
	if p.Mod == 0 {
		return true
	}
	v := row[p.Col] % p.Mod
	if v < 0 {
		v += p.Mod
	}
	return v < p.Keep
}

// scanChunk bounds per-Step work for all operators.
const scanChunk = 48

// SeqScan reads a row partition in storage order.
type SeqScan struct {
	T       *Table
	Lo, Hi  int // row-id partition [Lo, Hi)
	P       Pred
	KeyCol  int
	AuxCol  int
	RowCost int // instructions per row (0 = default 14)
	// CPI overrides the scan loop's inherent CPI (0 = cpiSeqScan); Code
	// overrides its code region (nil = the engine's shared scan loop).
	// Both exist so distinct query phases can be distinguishable in EIP
	// space, as distinct compiled plans are in a real server.
	CPI  float64
	Code *workload.CodeRegion

	cur int
}

// Reset implements Op.
func (s *SeqScan) Reset() { s.cur = s.Lo }

// Step implements Op.
func (s *SeqScan) Step(x *Exec) (Tuple, Status) {
	if s.cur < s.Lo {
		s.cur = s.Lo
	}
	cost := s.RowCost
	if cost == 0 {
		cost = 14
	}
	loopCPI := s.CPI
	if loopCPI == 0 {
		loopCPI = cpiSeqScan
	}
	code := s.Code
	if code == nil {
		code = x.DB.Code.SeqScan
	}
	f := s.T.File
	for n := 0; n < scanChunk && s.cur < s.Hi; n++ {
		id := heapfile.RowID(s.cur)
		s.cur++
		row := f.Row(id)
		keep := s.P.Match(row)
		x.TouchRow(code.SeqPC(), f, id, cost, loopCPI, keep)
		if keep {
			return Tuple{K: row[s.KeyCol], A: row[s.AuxCol], B: int64(id)}, HaveRow
		}
	}
	if s.cur >= s.Hi {
		return Tuple{}, EOF
	}
	return Tuple{}, NeedMore
}

// IndexNLJoin probes an inner index once per outer tuple (an index
// nested-loop join). Output tuples carry the outer key and the inner aux
// column.
type IndexNLJoin struct {
	Outer  Op
	T      *Table // inner
	Idx    *Index
	AuxCol int

	pending []int64 // matched inner row ids
	pendKey int64
}

// Reset implements Op.
func (j *IndexNLJoin) Reset() {
	j.Outer.Reset()
	j.pending = j.pending[:0]
}

// Step implements Op.
func (j *IndexNLJoin) Step(x *Exec) (Tuple, Status) {
	f := j.T.File
	if len(j.pending) > 0 {
		id := heapfile.RowID(j.pending[0])
		j.pending = j.pending[1:]
		x.TouchRow(x.DB.Code.IndexScan.NextPC(), f, id, 11, cpiIndexScan, true)
		return Tuple{K: j.pendKey, A: f.Col(id, j.AuxCol), B: int64(id)}, HaveRow
	}
	out, st := j.Outer.Step(x)
	if st != HaveRow {
		return Tuple{}, st
	}
	j.pendKey = out.K
	j.Idx.Tree.Range(out.K, out.K,
		func(a uint64) { x.TouchNode(a, true) },
		func(k, v int64) bool {
			j.pending = append(j.pending, v)
			return true
		})
	return Tuple{}, NeedMore
}

// HashJoin builds a hash table from Inner, then probes it with Outer.
// Output tuples carry the join key, the outer aux, and the inner aux.
type HashJoin struct {
	Inner, Outer Op

	// The build side accumulates (key, aux) pairs into one flat slice and
	// groups them when the inner relation is drained: a stable sort by key
	// keeps each key's aux values in scan order, and ht then maps a key to
	// its contiguous span. One map entry per distinct key replaces the
	// seed's map of independently growing slices (one allocation per few
	// inner rows); probe results are byte-identical because only the
	// per-key value order is observable.
	pairs   []Tuple   // inner (K, A) pairs in scan order
	ht      spanTable // key -> span of pairs after grouping
	built   bool
	grouped bool
	// The in-flight probe match: outer row (pendK, pendA) joined against
	// pairs[pendOff:pendEnd], emitted one row per Step.
	pendOff int32
	pendEnd int32
	pendK   int64
	pendA   int64
}

// span is a half-open range into HashJoin.pairs.
type span struct{ off, end int32 }

// spanTable is an open-addressed key -> span index sized for the build
// side. It only ever answers point lookups (iteration order is never
// observed), and a flat probe sequence beats the general-purpose map by
// a wide margin in the join's inner loop. A zero span marks an empty
// slot: real spans are non-empty, so end > off >= 0 always holds.
type spanTable struct {
	keys  []int64
	spans []span
	shift uint
}

func (t *spanTable) init(n int) {
	size := 4
	for size < 2*n {
		size *= 2
	}
	if len(t.keys) < size {
		t.keys = make([]int64, size)
		t.spans = make([]span, size)
	} else {
		size = len(t.keys)
		clear(t.keys)
		clear(t.spans)
	}
	shift := uint(64)
	for 1<<(64-shift) != size {
		shift--
	}
	t.shift = shift
}

func (t *spanTable) slot(k int64) uint64 {
	return uint64(k) * 0x9E3779B97F4A7C15 >> t.shift
}

func (t *spanTable) put(k int64, sp span) {
	mask := uint64(len(t.keys) - 1)
	for i := t.slot(k); ; i = (i + 1) & mask {
		if t.spans[i].end == 0 {
			t.keys[i], t.spans[i] = k, sp
			return
		}
	}
}

// get returns the key's span, or the zero span if the key never appeared
// on the build side.
func (t *spanTable) get(k int64) span {
	mask := uint64(len(t.keys) - 1)
	for i := t.slot(k); ; i = (i + 1) & mask {
		if sp := t.spans[i]; sp.end == 0 || t.keys[i] == k {
			return sp
		}
	}
}

// Reset implements Op.
func (j *HashJoin) Reset() {
	j.Inner.Reset()
	j.Outer.Reset()
	j.pairs = j.pairs[:0]
	j.built = false
	j.grouped = false
	j.pendOff, j.pendEnd = 0, 0
}

// group sorts the build pairs by key (stably, preserving scan order within
// a key) and indexes each key's span.
func (j *HashJoin) group() {
	slices.SortStableFunc(j.pairs, func(a, b Tuple) int {
		switch {
		case a.K < b.K:
			return -1
		case a.K > b.K:
			return 1
		default:
			return 0
		}
	})
	j.ht.init(len(j.pairs))
	for i := 0; i < len(j.pairs); {
		k, start := j.pairs[i].K, i
		for i < len(j.pairs) && j.pairs[i].K == k {
			i++
		}
		j.ht.put(k, span{off: int32(start), end: int32(i)})
	}
	j.grouped = true
}

// Step implements Op.
func (j *HashJoin) Step(x *Exec) (Tuple, Status) {
	if !j.built {
		for n := 0; n < scanChunk; n++ {
			t, st := j.Inner.Step(x)
			switch st {
			case HaveRow:
				j.pairs = append(j.pairs, Tuple{K: t.K, A: t.A})
				x.emitMem(x.DB.Code.HashJoin.SeqPC(), 8, cpiHashJoin, x.HashBucketAddr(t.K), false, false)
			case NeedMore:
				return Tuple{}, NeedMore
			case EOF:
				j.built = true
				return Tuple{}, NeedMore
			}
		}
		return Tuple{}, NeedMore
	}
	if !j.grouped {
		j.group()
	}
	if j.pendOff < j.pendEnd {
		a := j.pairs[j.pendOff].A
		j.pendOff++
		x.emit(x.DB.Code.HashJoin.SeqPC(), 6, cpiHashJoin)
		return Tuple{K: j.pendK, A: j.pendA, B: a}, HaveRow
	}
	out, st := j.Outer.Step(x)
	if st != HaveRow {
		return Tuple{}, st
	}
	sp := j.ht.get(out.K)
	x.emitMem(x.DB.Code.HashJoin.SeqPC(), 10, cpiHashJoin, x.HashBucketAddr(out.K), true, sp.end > sp.off)
	if sp.end == sp.off {
		return Tuple{}, NeedMore
	}
	j.pendK, j.pendA = out.K, out.A
	j.pendOff, j.pendEnd = sp.off, sp.end
	return Tuple{}, NeedMore
}

// Sort drains its child, sorts for real, models the merge passes over the
// sort work area, and then yields in key order.
type Sort struct {
	Child Op
	Desc  bool

	rows    []Tuple
	drained bool
	sorted  bool
	passes  int
	pass    int
	passPos int
	out     int
}

// Reset implements Op.
func (s *Sort) Reset() {
	s.Child.Reset()
	s.rows = s.rows[:0]
	s.drained, s.sorted = false, false
	s.pass, s.passPos, s.out = 0, 0, 0
}

// mergeGroup is how many element moves one modeled merge-pass event
// covers.
const mergeGroup = 16

// Step implements Op.
func (s *Sort) Step(x *Exec) (Tuple, Status) {
	if !s.drained {
		for n := 0; n < scanChunk; n++ {
			t, st := s.Child.Step(x)
			switch st {
			case HaveRow:
				s.rows = append(s.rows, t)
			case NeedMore:
				return Tuple{}, NeedMore
			case EOF:
				s.drained = true
				return Tuple{}, NeedMore
			}
		}
		return Tuple{}, NeedMore
	}
	if !s.sorted {
		// Stable generic sort: identical output order to sort.SliceStable
		// (stability makes the result unique) without the reflection
		// swapper in the hot path.
		slices.SortStableFunc(s.rows, func(a, b Tuple) int {
			if a.K != b.K {
				up := a.K < b.K
				if s.Desc {
					up = !up
				}
				if up {
					return -1
				}
				return 1
			}
			switch {
			case a.B < b.B:
				return -1
			case a.B > b.B:
				return 1
			default:
				return 0
			}
		})
		s.sorted = true
		s.passes = 0
		for n := 1; n < len(s.rows); n *= 2 {
			s.passes++
		}
		return Tuple{}, NeedMore
	}
	if s.pass < s.passes {
		// One modeled merge pass: stream the work area.
		for n := 0; n < scanChunk && s.passPos < len(s.rows); n += mergeGroup {
			src := x.SortSlotAddr(s.passPos)
			dst := x.SortSlotAddr(s.passPos + len(s.rows))
			ev := x.em.Alloc()
			x.DB.Code.Sort.SeqPC().Assign(ev)
			ev.Insts = 5 * mergeGroup
			ev.BaseCPI = cpiSort
			ev.AddMem(src)
			ev.AddMem(dst)
			x.em.Commit(ev)
			s.passPos += mergeGroup
		}
		if s.passPos >= len(s.rows) {
			s.pass++
			s.passPos = 0
		}
		return Tuple{}, NeedMore
	}
	if s.out < len(s.rows) {
		t := s.rows[s.out]
		s.out++
		x.emitMem(x.DB.Code.Sort.SeqPC(), 4, cpiSort, x.SortSlotAddr(s.out), false, false)
		return t, HaveRow
	}
	return Tuple{}, EOF
}

// HashAgg groups by key, computing count and sum of aux, then yields groups
// in key order (deterministically).
type HashAgg struct {
	Child Op

	groups  map[int64][2]int64 // key -> {count, sum}
	keys    []int64
	drained bool
	out     int
}

// Reset implements Op.
func (a *HashAgg) Reset() {
	a.Child.Reset()
	clear(a.groups) // keep the buckets: repeated query runs reuse them
	a.keys = a.keys[:0]
	a.drained = false
	a.out = 0
}

// Step implements Op.
func (a *HashAgg) Step(x *Exec) (Tuple, Status) {
	if !a.drained {
		if a.groups == nil {
			a.groups = make(map[int64][2]int64)
		}
		for n := 0; n < scanChunk; n++ {
			t, st := a.Child.Step(x)
			switch st {
			case HaveRow:
				g := a.groups[t.K]
				g[0]++
				g[1] += t.A
				a.groups[t.K] = g
				x.emitMem(x.DB.Code.Agg.SeqPC(), 8, cpiAgg, x.HashBucketAddr(t.K^0x5bd1e995), false, false)
			case NeedMore:
				return Tuple{}, NeedMore
			case EOF:
				a.drained = true
				for k := range a.groups {
					a.keys = append(a.keys, k)
				}
				slices.Sort(a.keys) // distinct map keys: no ties, order unique
				return Tuple{}, NeedMore
			}
		}
		return Tuple{}, NeedMore
	}
	if a.out < len(a.keys) {
		k := a.keys[a.out]
		a.out++
		g := a.groups[k]
		x.emit(x.DB.Code.Agg.SeqPC(), 6, cpiAgg)
		return Tuple{K: k, A: g[0], B: g[1]}, HaveRow
	}
	return Tuple{}, EOF
}

// TopN keeps the N largest keys from its child and yields them descending.
type TopN struct {
	Child Op
	N     int

	rows    []Tuple
	drained bool
	out     int
}

// Reset implements Op.
func (t *TopN) Reset() {
	t.Child.Reset()
	t.rows = t.rows[:0]
	t.drained = false
	t.out = 0
}

// Step implements Op.
func (t *TopN) Step(x *Exec) (Tuple, Status) {
	if !t.drained {
		for n := 0; n < scanChunk; n++ {
			tu, st := t.Child.Step(x)
			switch st {
			case HaveRow:
				x.emit(x.DB.Code.Sort.SeqPC(), 5, cpiSort)
				t.rows = append(t.rows, tu)
				if len(t.rows) > 4*t.N {
					t.compact()
				}
			case NeedMore:
				return Tuple{}, NeedMore
			case EOF:
				t.drained = true
				t.compact()
				return Tuple{}, NeedMore
			}
		}
		return Tuple{}, NeedMore
	}
	if t.out < len(t.rows) {
		tu := t.rows[t.out]
		t.out++
		x.emit(x.DB.Code.Sort.SeqPC(), 4, cpiSort)
		return tu, HaveRow
	}
	return Tuple{}, EOF
}

// MergeJoin joins two streams that are already sorted ascending by key
// (typically Sort children), emitting the cross product of each matching
// key group. Output tuples carry the key, the left aux and the right aux.
//
// The operator is a resumable state machine: any child Step returning
// NeedMore suspends it mid-phase without losing position, the contract all
// operators in this engine obey.
type MergeJoin struct {
	Left, Right Op

	phase     mjPhase
	l, r      Tuple
	haveR     bool
	rConsumed bool // j.r has been folded into state; advance right next

	group      []int64 // right-side aux values for groupKey's run
	groupKey   int64
	groupValid bool
	emitIdx    int
}

type mjPhase int

const (
	mjPrimeL mjPhase = iota
	mjPrimeR
	mjAlign
	mjEmit
	mjAdvanceL
)

// Reset implements Op.
func (j *MergeJoin) Reset() {
	j.Left.Reset()
	j.Right.Reset()
	j.phase = mjPrimeL
	j.haveR, j.rConsumed, j.groupValid = false, false, false
	j.group = j.group[:0]
	j.emitIdx = 0
}

// advance pulls one tuple from an op, distinguishing "row", "exhausted"
// and "still working".
func advance(x *Exec, op Op) (Tuple, bool, Status) {
	t, st := op.Step(x)
	switch st {
	case HaveRow:
		return t, true, HaveRow
	case EOF:
		return Tuple{}, false, EOF
	default:
		return Tuple{}, false, NeedMore
	}
}

// Step implements Op.
func (j *MergeJoin) Step(x *Exec) (Tuple, Status) {
	switch j.phase {
	case mjPrimeL:
		l, ok, st := advance(x, j.Left)
		if st == NeedMore {
			return Tuple{}, NeedMore
		}
		if !ok {
			return Tuple{}, EOF
		}
		j.l = l
		j.phase = mjPrimeR
		return Tuple{}, NeedMore

	case mjPrimeR:
		r, ok, st := advance(x, j.Right)
		if st == NeedMore {
			return Tuple{}, NeedMore
		}
		j.r, j.haveR = r, ok
		j.phase = mjAlign
		return Tuple{}, NeedMore

	case mjAlign:
		if j.rConsumed {
			r, ok, st := advance(x, j.Right)
			if st == NeedMore {
				return Tuple{}, NeedMore
			}
			j.r, j.haveR, j.rConsumed = r, ok, false
			return Tuple{}, NeedMore
		}
		switch {
		case j.haveR && j.r.K < j.l.K:
			// Right side lags: skip forward.
			x.emit(x.DB.Code.HashJoin.SeqPC(), 4, cpiHashJoin)
			j.rConsumed = true
		case j.haveR && j.r.K == j.l.K:
			// Collect the right run for this key, one element per Step.
			if !j.groupValid || j.groupKey != j.l.K {
				j.group = j.group[:0]
				j.groupKey = j.l.K
				j.groupValid = true
			}
			j.group = append(j.group, j.r.A)
			x.emitMem(x.DB.Code.HashJoin.SeqPC(), 6, cpiHashJoin,
				x.SortSlotAddr(len(j.group)), false, false)
			j.rConsumed = true
		default:
			// Right is ahead or exhausted: the group for l.K (possibly
			// empty) is complete.
			if j.groupValid && j.groupKey == j.l.K {
				j.emitIdx = 0
				j.phase = mjEmit
			} else {
				j.phase = mjAdvanceL
			}
		}
		return Tuple{}, NeedMore

	case mjEmit:
		if j.emitIdx < len(j.group) {
			a := j.group[j.emitIdx]
			j.emitIdx++
			x.emit(x.DB.Code.HashJoin.SeqPC(), 5, cpiHashJoin)
			return Tuple{K: j.l.K, A: j.l.A, B: a}, HaveRow
		}
		j.phase = mjAdvanceL
		return Tuple{}, NeedMore

	default: // mjAdvanceL
		l, ok, st := advance(x, j.Left)
		if st == NeedMore {
			return Tuple{}, NeedMore
		}
		if !ok {
			return Tuple{}, EOF
		}
		j.l = l
		j.phase = mjAlign
		return Tuple{}, NeedMore
	}
}

// Project rewrites tuples inline (no modeled cost; real planners fold
// projections into their parents).
type Project struct {
	Child Op
	F     func(Tuple) Tuple
}

// Reset implements Op.
func (p *Project) Reset() { p.Child.Reset() }

// Step implements Op.
func (p *Project) Step(x *Exec) (Tuple, Status) {
	t, st := p.Child.Step(x)
	if st == HaveRow {
		return p.F(t), HaveRow
	}
	return t, st
}

// KeyWalk generates Count probe keys per cycle by a reflecting random walk
// over [0, N). The walk gives the key stream long-range-correlated
// locality: for stretches it lingers in one key region, then drifts away.
// This models the data-dependent traversal randomness of index-driven
// access (§6.2) — the per-interval cache and buffer-pool behaviour of the
// consumer varies on timescales much longer than one EIPV interval, while
// the executed code does not change at all.
type KeyWalk struct {
	N       int64
	StepMax int64
	Count   int
	Seed    uint64

	rng     *xrand.Rand
	pos     int64
	emitted int
}

// Reset implements Op.
func (k *KeyWalk) Reset() { k.emitted = 0 }

// Step implements Op.
func (k *KeyWalk) Step(x *Exec) (Tuple, Status) {
	if k.rng == nil {
		k.rng = xrand.New(k.Seed)
		k.pos = int64(k.rng.Intn(int(k.N)))
	}
	if k.emitted >= k.Count {
		return Tuple{}, EOF
	}
	k.emitted++
	k.pos += int64(k.rng.Range(int(-k.StepMax), int(k.StepMax)))
	for k.pos < 0 || k.pos >= k.N {
		if k.pos < 0 {
			k.pos = -k.pos
		}
		if k.pos >= k.N {
			k.pos = 2*(k.N-1) - k.pos
		}
	}
	x.emit(x.DB.Code.Executor.HotPC(), 7, cpiExecutor)
	return Tuple{K: k.pos}, HaveRow
}

func (t *TopN) compact() {
	slices.SortStableFunc(t.rows, func(a, b Tuple) int {
		if a.K != b.K {
			if a.K > b.K {
				return -1
			}
			return 1
		}
		switch {
		case a.B < b.B:
			return -1
		case a.B > b.B:
			return 1
		default:
			return 0
		}
	})
	if len(t.rows) > t.N {
		t.rows = t.rows[:t.N]
	}
}
