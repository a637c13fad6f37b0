package db

import (
	"testing"
	"testing/quick"

	"repro/internal/addr"
	"repro/internal/xrand"
)

// These tests treat the engine as a real database: the same logical query
// computed by different physical operators must produce the same relation.

// joinPairs runs a plan to EOF and returns (key, count) aggregated pairs.
func joinCounts(t *testing.T, x *Exec, plan Op) map[int64]int {
	t.Helper()
	out := map[int64]int{}
	for _, tu := range runPlan(t, x, plan) {
		out[tu.K]++
	}
	return out
}

func TestHashJoinEquivalentToIndexNLJoin(t *testing.T) {
	d := testDB(t)
	x := newTestExec(t, d)
	ord := d.Table("orders")

	// Logical query: for customers 0..199, how many orders does each
	// have? Physical plan A: hash join build customers, probe orders.
	hash := &HashJoin{
		Inner: &SeqScan{T: d.Table("customer"), Lo: 0, Hi: 200, KeyCol: CustKey, AuxCol: CustKey},
		Outer: &SeqScan{T: ord, Lo: 0, Hi: ord.File.NumRows(), KeyCol: OrdCust, AuxCol: OrdKey},
	}
	// Physical plan B: scan customers, probe the orders(custkey) index.
	nl := &IndexNLJoin{
		Outer: &SeqScan{T: d.Table("customer"), Lo: 0, Hi: 200, KeyCol: CustKey, AuxCol: CustKey},
		T:     ord, Idx: ord.Index(OrdCust), AuxCol: OrdKey,
	}
	a := joinCounts(t, x, hash)
	b := joinCounts(t, x, nl)
	if len(a) != len(b) {
		t.Fatalf("hash join found %d keys, index join %d", len(a), len(b))
	}
	for k, n := range a {
		if b[k] != n {
			t.Fatalf("key %d: hash %d matches, index %d", k, n, b[k])
		}
	}
}

func TestSortThenAggEquivalentToAggThenSort(t *testing.T) {
	d := testDB(t)
	x := newTestExec(t, d)
	mk := func() Op {
		return &SeqScan{T: d.Table("orders"), Lo: 0, Hi: 800, KeyCol: OrdStatus, AuxCol: OrdPrice}
	}
	// Aggregate directly.
	direct := runPlan(t, x, &HashAgg{Child: mk()})
	// Aggregate a sorted stream: grouping is order-insensitive.
	sorted := runPlan(t, x, &HashAgg{Child: &Sort{Child: mk()}})
	if len(direct) != len(sorted) {
		t.Fatalf("group counts differ: %d vs %d", len(direct), len(sorted))
	}
	for i := range direct {
		if direct[i] != sorted[i] {
			t.Fatalf("group %d differs: %+v vs %+v", i, direct[i], sorted[i])
		}
	}
}

func TestPlanDeterminismProperty(t *testing.T) {
	// Any query plan over the same data yields the same tuples on every
	// execution (Reset included), regardless of seed-driven scheduling.
	f := func(seed uint64) bool {
		space := addr.NewSpace()
		scale := DSSScale{Customers: 100, Orders: 800, Lineitems: 1500, Parts: 50, Suppliers: 10}
		d := BuildDSS(space, DSSConfig(), scale, seed, neverStop)
		x := NewExec(d)
		x.DisableIO = true
		plan := &Sort{Child: &HashAgg{Child: &HashJoin{
			Inner: &SeqScan{T: d.Table("customer"), Lo: 0, Hi: 100, KeyCol: CustKey, AuxCol: CustNation},
			Outer: &SeqScan{T: d.Table("orders"), Lo: 0, Hi: 800, KeyCol: OrdCust, AuxCol: OrdPrice},
		}}}
		first := runPlan(t, x, plan)
		plan.Reset()
		second := runPlan(t, x, plan)
		if len(first) != len(second) {
			return false
		}
		for i := range first {
			if first[i] != second[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestAggConservesRows(t *testing.T) {
	// Property: group counts sum to the number of input rows, for any
	// partition bounds.
	f := func(seed uint64) bool {
		d := testDB(t)
		x := newTestExec(t, d)
		rng := xrand.New(seed)
		lo := rng.Intn(1500)
		hi := lo + 1 + rng.Intn(2000-lo-1)
		agg := &HashAgg{Child: &SeqScan{T: d.Table("orders"), Lo: lo, Hi: hi, KeyCol: OrdCust, AuxCol: OrdKey}}
		total := int64(0)
		for _, g := range runPlan(t, x, agg) {
			total += g.A
		}
		return total == int64(hi-lo)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// mergePlan builds a merge join over sorted scans of customer (left) and
// orders-by-custkey (right).
func mergePlan(d *Database, custHi, ordHi int) Op {
	return &MergeJoin{
		Left:  &Sort{Child: &SeqScan{T: d.Table("customer"), Lo: 0, Hi: custHi, KeyCol: CustKey, AuxCol: CustNation}},
		Right: &Sort{Child: &SeqScan{T: d.Table("orders"), Lo: 0, Hi: ordHi, KeyCol: OrdCust, AuxCol: OrdKey}},
	}
}

func TestMergeJoinEquivalentToHashJoin(t *testing.T) {
	d := testDB(t)
	x := newTestExec(t, d)

	merge := runPlan(t, x, mergePlan(d, 200, 1200))
	hash := runPlan(t, x, &HashJoin{
		Inner: &SeqScan{T: d.Table("orders"), Lo: 0, Hi: 1200, KeyCol: OrdCust, AuxCol: OrdKey},
		Outer: &SeqScan{T: d.Table("customer"), Lo: 0, Hi: 200, KeyCol: CustKey, AuxCol: CustNation},
	})
	// Compare as multisets of (key, leftAux, rightAux).
	type row struct{ k, a, b int64 }
	count := map[row]int{}
	for _, tu := range merge {
		count[row{tu.K, tu.A, tu.B}]++
	}
	for _, tu := range hash {
		count[row{tu.K, tu.A, tu.B}]--
	}
	for r, c := range count {
		if c != 0 {
			t.Fatalf("merge/hash multiset mismatch at %+v: %+d", r, c)
		}
	}
	if len(merge) == 0 {
		t.Fatal("merge join produced nothing")
	}
}

func TestMergeJoinDuplicatesBothSides(t *testing.T) {
	// Cross-product semantics: duplicate keys on both sides multiply.
	d := testDB(t)
	x := newTestExec(t, d)
	left := &fixedKeys{keys: []int64{5, 5, 7, 9}}
	rightRows := &fixedKeys{keys: []int64{5, 5, 5, 9}}
	j := &MergeJoin{Left: left, Right: rightRows}
	got := runPlan(t, x, j)
	// key 5: 2 left x 3 right = 6; key 7: 0; key 9: 1x1 = 1.
	if len(got) != 7 {
		t.Fatalf("merge join of duplicate keys produced %d rows, want 7", len(got))
	}
	byKey := map[int64]int{}
	for _, tu := range got {
		byKey[tu.K]++
	}
	if byKey[5] != 6 || byKey[9] != 1 || byKey[7] != 0 {
		t.Fatalf("per-key counts %v", byKey)
	}
}

func TestMergeJoinEmptySides(t *testing.T) {
	d := testDB(t)
	x := newTestExec(t, d)
	empty := &fixedKeys{}
	some := &fixedKeys{keys: []int64{1, 2, 3}}
	if got := runPlan(t, x, &MergeJoin{Left: empty, Right: some}); len(got) != 0 {
		t.Fatalf("empty left joined %d rows", len(got))
	}
	empty2 := &fixedKeys{}
	some2 := &fixedKeys{keys: []int64{1, 2, 3}}
	if got := runPlan(t, x, &MergeJoin{Left: some2, Right: empty2}); len(got) != 0 {
		t.Fatalf("empty right joined %d rows", len(got))
	}
}

func TestMergeJoinResetRepeats(t *testing.T) {
	d := testDB(t)
	x := newTestExec(t, d)
	plan := mergePlan(d, 100, 600)
	first := runPlan(t, x, plan)
	plan.Reset()
	second := runPlan(t, x, plan)
	if len(first) != len(second) {
		t.Fatalf("reset changed row count: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("row %d differs after reset", i)
		}
	}
}
