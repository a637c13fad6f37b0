package btree

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func bump() Alloc {
	next := uint64(0x100000000)
	return func(size uint64) uint64 {
		a := next
		next += size
		return a
	}
}

// height returns the number of levels (1 for a lone leaf).
func height(t *Tree) int {
	h := 1
	for n := t.root; !n.leaf; n = n.children[0] {
		h++
	}
	return h
}

func TestEmptyTree(t *testing.T) {
	tr := New(8, bump())
	if tr.Len() != 0 || height(tr) != 1 {
		t.Fatalf("empty tree: len=%d height=%d", tr.Len(), height(tr))
	}
	if _, ok := tr.Search(5, nil); ok {
		t.Fatal("found key in empty tree")
	}
}

func TestInsertSearch(t *testing.T) {
	tr := New(4, bump())
	for i := int64(0); i < 1000; i++ {
		tr.Insert(i*7%1000, i*7%1000*10)
	}
	if tr.Len() != 1000 {
		t.Fatalf("len = %d", tr.Len())
	}
	for i := int64(0); i < 1000; i++ {
		v, ok := tr.Search(i, nil)
		if !ok || v != i*10 {
			t.Fatalf("Search(%d) = %d,%v", i, v, ok)
		}
	}
	if _, ok := tr.Search(1000, nil); ok {
		t.Fatal("found absent key")
	}
	if err := tr.check(); err != nil {
		t.Fatal(err)
	}
}

func TestHeightGrows(t *testing.T) {
	tr := New(4, bump())
	for i := int64(0); i < 10000; i++ {
		tr.Insert(i, i)
	}
	if h := height(tr); h < 5 {
		t.Fatalf("height %d too small for 10k entries at order 4", h)
	}
	if err := tr.check(); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateKeys(t *testing.T) {
	tr := New(4, bump())
	for i := int64(0); i < 10; i++ {
		tr.Insert(42, i)
	}
	got := 0
	tr.Range(42, 42, nil, func(k, v int64) bool {
		if k != 42 {
			t.Fatalf("range emitted key %d", k)
		}
		got++
		return true
	})
	if got != 10 {
		t.Fatalf("range over duplicates saw %d/10", got)
	}
}

func TestRangeOrderAndBounds(t *testing.T) {
	tr := New(5, bump())
	r := xrand.New(1)
	perm := make([]int, 500)
	r.Perm(perm)
	for _, k := range perm {
		tr.Insert(int64(k), int64(k))
	}
	var got []int64
	tr.Range(100, 199, nil, func(k, v int64) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 100 {
		t.Fatalf("range size %d, want 100", len(got))
	}
	for i, k := range got {
		if k != int64(100+i) {
			t.Fatalf("range out of order at %d: %d", i, k)
		}
	}
}

func TestRangeEarlyStop(t *testing.T) {
	tr := New(4, bump())
	for i := int64(0); i < 100; i++ {
		tr.Insert(i, i)
	}
	n := 0
	tr.Range(0, 99, nil, func(k, v int64) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Fatalf("early stop emitted %d", n)
	}
}

// TestWalkVisitsAll: a range over the whole key space is a full index
// scan, visiting every entry once in key order.
func TestWalkVisitsAll(t *testing.T) {
	tr := New(6, bump())
	for i := int64(0); i < 777; i++ {
		tr.Insert(i*3, i)
	}
	n := 0
	prev := int64(-1)
	tr.Range(math.MinInt64, math.MaxInt64, nil, func(k, v int64) bool {
		if k <= prev {
			t.Fatalf("walk out of order: %d after %d", k, prev)
		}
		prev = k
		n++
		return true
	})
	if n != 777 {
		t.Fatalf("walk saw %d/777", n)
	}
}

func TestSearchVisitReportsPath(t *testing.T) {
	tr := New(4, bump())
	for i := int64(0); i < 5000; i++ {
		tr.Insert(i, i)
	}
	var path []uint64
	tr.Search(2500, func(a uint64) { path = append(path, a) })
	// Root-to-leaf descent, plus at most a couple of leaf-chain hops when
	// the key equals a separator.
	if len(path) < height(tr) || len(path) > height(tr)+2 {
		t.Fatalf("visit path length %d, height %d", len(path), height(tr))
	}
	if path[0] != tr.root.addr {
		t.Fatal("path does not start at root")
	}
	seen := map[uint64]bool{}
	for _, a := range path {
		if seen[a] {
			t.Fatal("node visited twice on a root-to-leaf path")
		}
		seen[a] = true
	}
}

func TestDistinctNodesDistinctAddrs(t *testing.T) {
	alloc := bump()
	addrs := map[uint64]bool{}
	counting := func(size uint64) uint64 {
		a := alloc(size)
		if addrs[a] {
			t.Fatalf("address %#x allocated twice", a)
		}
		addrs[a] = true
		return a
	}
	tr := New(4, counting)
	for i := int64(0); i < 2000; i++ {
		tr.Insert(i, i)
	}
	if len(addrs) < 100 {
		t.Fatalf("only %d nodes allocated for 2000 entries at order 4", len(addrs))
	}
}

func TestInvariantsUnderRandomInserts(t *testing.T) {
	f := func(seed uint64) bool {
		tr := New(3+int(seed%6), bump())
		r := xrand.New(seed)
		n := 50 + r.Intn(500)
		for i := 0; i < n; i++ {
			tr.Insert(int64(r.Intn(200)), int64(i))
		}
		return tr.Len() == n && tr.check() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestConstructorPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("order 2 did not panic")
			}
		}()
		New(2, bump())
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil alloc did not panic")
			}
		}()
		New(4, nil)
	}()
}

func BenchmarkSearch(b *testing.B) {
	tr := New(64, bump())
	for i := int64(0); i < 100000; i++ {
		tr.Insert(i, i)
	}
	r := xrand.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Search(int64(r.Intn(100000)), nil)
	}
}

// check validates B+tree invariants.
func (t *Tree) check() error {
	var prev int64
	first := true
	count := 0
	var walkErr error
	t.Range(math.MinInt64, math.MaxInt64, nil, func(k, v int64) bool {
		if !first && k < prev {
			walkErr = fmt.Errorf("keys out of order: %d after %d", k, prev)
			return false
		}
		prev, first = k, false
		count++
		return true
	})
	if walkErr != nil {
		return walkErr
	}
	if count != t.size {
		return fmt.Errorf("walk saw %d entries, size is %d", count, t.size)
	}
	return t.checkNode(t.root, height(t), 1)
}

func (t *Tree) checkNode(n *node, height, depth int) error {
	if n.leaf {
		if depth != height {
			return fmt.Errorf("leaf at depth %d, height %d", depth, height)
		}
		if len(n.keys) >= t.order {
			return fmt.Errorf("leaf overfull: %d keys", len(n.keys))
		}
		return nil
	}
	if len(n.children) != len(n.keys)+1 {
		return fmt.Errorf("internal node: %d keys, %d children", len(n.keys), len(n.children))
	}
	if len(n.children) > t.order {
		return fmt.Errorf("internal overfull: %d children", len(n.children))
	}
	for _, c := range n.children {
		if err := t.checkNode(c, height, depth+1); err != nil {
			return err
		}
	}
	return nil
}
