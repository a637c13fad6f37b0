package db

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/cpu"
	"repro/internal/heapfile"
	"repro/internal/osim"
	"repro/internal/workload"
)

// testDB builds a small deterministic database for operator tests.
func testDB(t testing.TB) *Database {
	t.Helper()
	space := addr.NewSpace()
	scale := DSSScale{Customers: 200, Orders: 2000, Lineitems: 5000, Parts: 100, Suppliers: 20}
	return BuildDSS(space, DSSConfig(), scale, 42, neverStop)
}

func neverStop() bool { return false }

// runPlan drives a plan to EOF and returns the produced tuples. Emitted
// events are discarded by rebinding a fresh emitter whenever the buffer
// grows (the scheduler would drain it).
func runPlan(t testing.TB, x *Exec, plan Op) []Tuple {
	t.Helper()
	em := &workload.Emitter{}
	x.Bind(em)
	var out []Tuple
	for steps := 0; ; steps++ {
		if steps > 50_000_000 {
			t.Fatal("plan did not terminate")
		}
		if em.Pending() > 1<<16 {
			em = &workload.Emitter{}
			x.Bind(em)
		}
		tu, st := plan.Step(x)
		switch st {
		case HaveRow:
			out = append(out, tu)
		case EOF:
			return out
		}
	}
}

func newTestExec(t testing.TB, d *Database) *Exec {
	t.Helper()
	x := NewExec(d)
	x.DisableIO = true
	return x
}

// TestBuildDSSStops: BuildDSS polls its stop function as it goes and
// returns nil at the first true.
func TestBuildDSSStops(t *testing.T) {
	polls := 0
	stop := func() bool { polls++; return polls == 2 }
	scale := DSSScale{Customers: 200, Orders: 2000, Lineitems: 5000, Parts: 100, Suppliers: 20}
	if d := BuildDSS(addr.NewSpace(), DSSConfig(), scale, 42, stop); d != nil {
		t.Fatal("BuildDSS returned a database after its stop function reported true")
	}
	if polls != 2 {
		t.Fatalf("stop polled %d times, want 2", polls)
	}
}

// TestBuildDSSStopsInsideFills: the customer, orders and lineitem fills
// and the index builds poll stop every pollRows rows, so a stop that
// turns true on its k-th call ends BuildDSS at that call, inside the
// fill or build that made it, for every k the whole build reaches.
func TestBuildDSSStopsInsideFills(t *testing.T) {
	scale := DSSScale{Customers: 3 * pollRows, Orders: 2 * pollRows, Lineitems: 5 * pollRows, Parts: 100, Suppliers: 20}
	total := 0
	count := func() bool { total++; return false }
	if BuildDSS(addr.NewSpace(), DSSConfig(), scale, 42, count) == nil {
		t.Fatal("BuildDSS returned nil with a stop that never reports true")
	}
	// Four polls between tables and four before indexes; inside, 3 + 2 +
	// 5 fill polls and 2 + 2 + 5 + 3 index-build polls.
	if want := 8 + 10 + 12; total != want {
		t.Fatalf("a full build polled %d times, want %d", total, want)
	}
	for k := 1; k <= total; k++ {
		polls := 0
		stop := func() bool { polls++; return polls == k }
		if d := BuildDSS(addr.NewSpace(), DSSConfig(), scale, 42, stop); d != nil {
			t.Fatalf("k=%d: BuildDSS returned a database after its stop function reported true", k)
		}
		if polls != k {
			t.Fatalf("k=%d: BuildDSS went on to poll %d times", k, polls)
		}
	}
}

func TestBuildDSSShape(t *testing.T) {
	d := testDB(t)
	if d.Table("orders").File.NumRows() != 2000 {
		t.Fatalf("orders rows = %d", d.Table("orders").File.NumRows())
	}
	if d.Table("orders").Index(OrdCust) == nil {
		t.Fatal("missing orders(custkey) index")
	}
	if d.Table("lineitem").Index(LiOrder) == nil {
		t.Fatal("missing lineitem(orderkey) index")
	}
	// Index must agree with the table contents.
	idx := d.Table("orders").Index(OrdKey)
	v, ok := idx.Tree.Search(1234, nil)
	if !ok || d.Table("orders").File.Col(1234, OrdKey) != 1234 || v != 1234 {
		t.Fatalf("orderkey index lookup = %d,%v", v, ok)
	}
}

func TestSeqScanProducesAllMatchingRows(t *testing.T) {
	d := testDB(t)
	x := newTestExec(t, d)
	p := Pred{Col: OrdStatus, Mod: 3, Keep: 1}
	scan := &SeqScan{T: d.Table("orders"), Lo: 0, Hi: 2000, P: p, KeyCol: OrdKey, AuxCol: OrdPrice}
	got := runPlan(t, x, scan)
	want := 0
	f := d.Table("orders").File
	for i := 0; i < 2000; i++ {
		if p.Match(f.Row(heapfile.RowID(i))) {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("scan produced %d rows, want %d", len(got), want)
	}
	// Rows come back in storage order.
	for i := 1; i < len(got); i++ {
		if got[i].B <= got[i-1].B {
			t.Fatal("seq scan out of order")
		}
	}
}

func TestSeqScanEmitsEvents(t *testing.T) {
	d := testDB(t)
	x := NewExec(d)
	x.DisableIO = true
	var em workload.Emitter
	x.Bind(&em)
	scan := &SeqScan{T: d.Table("customer"), Lo: 0, Hi: 100, KeyCol: CustKey, AuxCol: CustNation}
	rows := 0
	for {
		_, st := scan.Step(x)
		if st == HaveRow {
			rows++
		}
		if st == EOF {
			break
		}
	}
	if rows != 100 {
		t.Fatalf("rows = %d", rows)
	}
	if em.Pending() < 100 {
		t.Fatalf("scan of 100 rows emitted only %d events", em.Pending())
	}
}

func TestHashJoinMatchesNestedLoopReference(t *testing.T) {
	d := testDB(t)
	x := newTestExec(t, d)
	join := &HashJoin{
		Inner: &SeqScan{T: d.Table("customer"), Lo: 0, Hi: 200, KeyCol: CustKey, AuxCol: CustNation},
		Outer: &SeqScan{T: d.Table("orders"), Lo: 0, Hi: 500, KeyCol: OrdCust, AuxCol: OrdPrice},
	}
	got := runPlan(t, x, join)
	// Reference: every order 0..499 matches exactly one customer.
	if len(got) != 500 {
		t.Fatalf("join produced %d rows, want 500", len(got))
	}
	cust := d.Table("customer").File
	ord := d.Table("orders").File
	seen := map[int64]int{}
	for _, tu := range got {
		seen[tu.K]++
		// B carries the inner aux (customer nation); check consistency.
		if cust.Col(heapfile.RowID(tu.K), CustNation) != tu.B {
			t.Fatalf("join row has wrong inner aux: key=%d aux=%d want %d", tu.K, tu.B, cust.Col(heapfile.RowID(tu.K), CustNation))
		}
	}
	wantSeen := map[int64]int{}
	for i := 0; i < 500; i++ {
		wantSeen[ord.Col(heapfile.RowID(i), OrdCust)]++
	}
	for k, n := range wantSeen {
		if seen[k] != n {
			t.Fatalf("join key %d seen %d times, want %d", k, seen[k], n)
		}
	}
}

func TestHashAggCountsOrdersPerCustomer(t *testing.T) {
	d := testDB(t)
	x := newTestExec(t, d)
	agg := &HashAgg{Child: &SeqScan{T: d.Table("orders"), Lo: 0, Hi: 2000, KeyCol: OrdCust, AuxCol: OrdPrice}}
	got := runPlan(t, x, agg)
	ord := d.Table("orders").File
	want := map[int64]int64{}
	for i := 0; i < 2000; i++ {
		want[ord.Col(heapfile.RowID(i), OrdCust)]++
	}
	if len(got) != len(want) {
		t.Fatalf("agg produced %d groups, want %d", len(got), len(want))
	}
	total := int64(0)
	for i, tu := range got {
		if want[tu.K] != tu.A {
			t.Fatalf("group %d count %d, want %d", tu.K, tu.A, want[tu.K])
		}
		total += tu.A
		if i > 0 && got[i].K <= got[i-1].K {
			t.Fatal("agg output not in key order")
		}
	}
	if total != 2000 {
		t.Fatalf("group counts sum to %d", total)
	}
}

func TestSortOrders(t *testing.T) {
	d := testDB(t)
	x := newTestExec(t, d)
	s := &Sort{Child: &SeqScan{T: d.Table("orders"), Lo: 0, Hi: 300, KeyCol: OrdPrice, AuxCol: OrdKey}}
	got := runPlan(t, x, s)
	if len(got) != 300 {
		t.Fatalf("sort produced %d rows", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].K < got[i-1].K {
			t.Fatal("ascending sort violated")
		}
	}
	s2 := &Sort{Child: &SeqScan{T: d.Table("orders"), Lo: 0, Hi: 300, KeyCol: OrdPrice, AuxCol: OrdKey}, Desc: true}
	got2 := runPlan(t, x, s2)
	for i := 1; i < len(got2); i++ {
		if got2[i].K > got2[i-1].K {
			t.Fatal("descending sort violated")
		}
	}
}

func TestTopN(t *testing.T) {
	d := testDB(t)
	x := newTestExec(t, d)
	top := &TopN{N: 10, Child: &SeqScan{T: d.Table("orders"), Lo: 0, Hi: 2000, KeyCol: OrdPrice, AuxCol: OrdKey}}
	got := runPlan(t, x, top)
	if len(got) != 10 {
		t.Fatalf("topN produced %d rows", len(got))
	}
	// Verify against a full sort.
	full := runPlan(t, x, &Sort{Desc: true, Child: &SeqScan{T: d.Table("orders"), Lo: 0, Hi: 2000, KeyCol: OrdPrice, AuxCol: OrdKey}})
	for i := 0; i < 10; i++ {
		if got[i].K != full[i].K {
			t.Fatalf("topN[%d] = %d, full sort has %d", i, got[i].K, full[i].K)
		}
	}
}

func TestIndexNLJoinFindsAllMatches(t *testing.T) {
	d := testDB(t)
	x := newTestExec(t, d)
	// Probe three fixed keys via a tiny driver op.
	driver := &fixedKeys{keys: []int64{5, 17, 100}}
	j := &IndexNLJoin{Outer: driver, T: d.Table("orders"), Idx: d.Table("orders").Index(OrdCust), AuxCol: OrdKey}
	got := runPlan(t, x, j)
	ord := d.Table("orders").File
	want := 0
	for i := 0; i < 2000; i++ {
		c := ord.Col(heapfile.RowID(i), OrdCust)
		if c == 5 || c == 17 || c == 100 {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("indexNL join found %d rows, want %d", len(got), want)
	}
}

type fixedKeys struct {
	keys []int64
	i    int
}

func (f *fixedKeys) Reset() { f.i = 0 }
func (f *fixedKeys) Step(x *Exec) (Tuple, Status) {
	if f.i >= len(f.keys) {
		return Tuple{}, EOF
	}
	k := f.keys[f.i]
	f.i++
	x.Glue(1)
	return Tuple{K: k}, HaveRow
}

func TestPlansResetAndRepeat(t *testing.T) {
	d := testDB(t)
	x := newTestExec(t, d)
	plan := &HashAgg{Child: &SeqScan{T: d.Table("customer"), Lo: 0, Hi: 200, KeyCol: CustSegment, AuxCol: CustBalance}}
	first := runPlan(t, x, plan)
	plan.Reset()
	second := runPlan(t, x, plan)
	if len(first) != len(second) {
		t.Fatalf("repeat produced %d groups vs %d", len(second), len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("repeat diverged at %d: %+v vs %+v", i, first[i], second[i])
		}
	}
}

func TestKeyWalkStaysInRange(t *testing.T) {
	d := testDB(t)
	x := newTestExec(t, d)
	var em workload.Emitter
	x.Bind(&em)
	kw := &KeyWalk{N: 100, StepMax: 30, Count: 5000, Seed: 3}
	for i := 0; i < 5000; i++ {
		tu, st := kw.Step(x)
		if st != HaveRow {
			t.Fatalf("keywalk ended early at %d (st=%d)", i, st)
		}
		if tu.K < 0 || tu.K >= 100 {
			t.Fatalf("keywalk out of range: %d", tu.K)
		}
	}
	if _, st := kw.Step(x); st != EOF {
		t.Fatal("keywalk did not EOF after Count")
	}
	kw.Reset()
	if _, st := kw.Step(x); st != HaveRow {
		t.Fatal("keywalk did not restart after Reset")
	}
}

func TestQueriesCatalog(t *testing.T) {
	qs := Queries()
	if len(qs) != 22 {
		t.Fatalf("have %d queries, want 22", len(qs))
	}
	counts := map[QueryBehavior]int{}
	seen := map[int]bool{}
	for _, q := range qs {
		if seen[q.ID] {
			t.Fatalf("duplicate query id %d", q.ID)
		}
		seen[q.ID] = true
		counts[q.Behavior]++
	}
	// The behaviour-class census drives the paper's Table 2 shape:
	// 9 scan-join-sort, 7 index-erratic, 4 uniform, 2 subtle.
	if counts[ScanJoinSort] != 9 || counts[IndexErratic] != 7 || counts[UniformScan] != 4 || counts[SubtlePhases] != 2 {
		t.Fatalf("behaviour census = %v", counts)
	}
	if _, err := QueryByID(13); err != nil {
		t.Fatal(err)
	}
	if _, err := QueryByID(23); err == nil {
		t.Fatal("QueryByID(23) did not error")
	}
}

func TestDSSWorkloadRuns(t *testing.T) {
	w := NewDSSWorkload(13)
	w.scale = DSSScale{Customers: 200, Orders: 2000, Lineitems: 5000, Parts: 100, Suppliers: 20}
	core := cpu.New(cpu.Itanium2())
	space := addr.NewSpace()
	sched := osim.New(core, space, osim.DefaultConfig())
	w.Setup(sched, space, 1)
	sched.RunObserved(400_000, nil)
	if core.Counters().Insts < 400_000 {
		t.Fatalf("retired only %d insts", core.Counters().Insts)
	}
	rows := 0
	for _, l := range w.Loops {
		rows += l.Rows
	}
	if rows == 0 {
		t.Fatal("query loop produced no result rows")
	}
}

func TestDSSWorkloadDeterministic(t *testing.T) {
	run := func() cpu.Counters {
		w := NewDSSWorkload(18)
		w.scale = DSSScale{Customers: 200, Orders: 2000, Lineitems: 5000, Parts: 100, Suppliers: 20}
		core := cpu.New(cpu.Itanium2())
		space := addr.NewSpace()
		sched := osim.New(core, space, osim.DefaultConfig())
		w.Setup(sched, space, 99)
		sched.RunObserved(300_000, nil)
		return core.Counters()
	}
	if c1, c2 := run(), run(); c1 != c2 {
		t.Fatalf("nondeterministic: counters %+v vs %+v", c1, c2)
	}
}

func TestWorkloadRegistryHasAllQueries(t *testing.T) {
	for id := 1; id <= 22; id++ {
		name := "odb-h.q" + itoa(id)
		f, ok := workload.Lookup(name)
		if !ok {
			t.Fatalf("workload %s not registered", name)
		}
		if got := f().Name(); got != name {
			t.Fatalf("factory for %s produced %s", name, got)
		}
	}
}

func itoa(i int) string {
	if i >= 10 {
		return string(rune('0'+i/10)) + string(rune('0'+i%10))
	}
	return string(rune('0' + i))
}

// TestPredSelectivity: the zero Pred keeps every row, and a Pred keeps
// exactly Keep of every Mod consecutive values, negative ones included.
func TestPredSelectivity(t *testing.T) {
	if !(Pred{}).Match([]int64{-7}) {
		t.Fatal("zero pred dropped a row")
	}
	p := Pred{Col: 0, Mod: 10, Keep: 3}
	kept := 0
	for v := int64(-50); v < 50; v++ {
		if p.Match([]int64{v}) {
			kept++
		}
	}
	if kept != 30 {
		t.Fatalf("kept %d of 100 values, want 30", kept)
	}
	if !p.Match([]int64{2}) || p.Match([]int64{5}) {
		t.Fatal("pred semantics wrong")
	}
	if !p.Match([]int64{-18}) {
		t.Fatal("negative value handling wrong") // -18 % 10 = -8 -> +10 = 2 < 3
	}
}

func TestQ3MergeJoinVariant(t *testing.T) {
	w := NewQ3MergeJoinWorkload()
	if w.Name() != "odb-h.q3.mergejoin" {
		t.Fatalf("name = %s", w.Name())
	}
	w.scale = DSSScale{Customers: 200, Orders: 2000, Lineitems: 5000, Parts: 100, Suppliers: 20}
	core := cpu.New(cpu.Itanium2())
	space := addr.NewSpace()
	sched := osim.New(core, space, osim.DefaultConfig())
	w.Setup(sched, space, 1)
	sched.RunObserved(600_000, nil)
	rows := 0
	for _, l := range w.Loops {
		rows += l.Rows
	}
	if rows == 0 {
		t.Fatal("merge-join variant produced no rows")
	}
	if _, ok := workload.Lookup("odb-h.q3.mergejoin"); !ok {
		t.Fatal("variant not registered")
	}
}
