package heapfile

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/bufpool"
)

func newFile(t *testing.T, arity, rowBytes, maxRows int) *File {
	t.Helper()
	return New(addr.NewSpace(), "t", arity, rowBytes, maxRows, 1000)
}

func TestAppendAndRead(t *testing.T) {
	f := newFile(t, 3, 64, 1000)
	id := f.Append(1, 2, 3)
	if id != 0 {
		t.Fatalf("first id = %d", id)
	}
	id2 := f.Append(4, 5, 6)
	if id2 != 1 {
		t.Fatalf("second id = %d", id2)
	}
	if r := f.Row(0); r[0] != 1 || r[1] != 2 || r[2] != 3 {
		t.Fatalf("Row(0) = %v", r)
	}
	if f.Col(1, 2) != 6 {
		t.Fatalf("Col(1,2) = %d", f.Col(1, 2))
	}
	if f.NumRows() != 2 {
		t.Fatalf("NumRows = %d", f.NumRows())
	}
}

func TestAddressesSequentialWithinPage(t *testing.T) {
	f := newFile(t, 1, 100, 1000)
	a0, a1 := f.Addr(0), f.Addr(1)
	if a1 != a0+100 {
		t.Fatalf("rows not contiguous: %#x %#x", a0, a1)
	}
	// Row crossing a page boundary starts at the next page.
	rpp := f.rowsPerPage
	if rpp != PageSize/100 {
		t.Fatalf("RowsPerPage = %d", rpp)
	}
	last := f.Addr(RowID(rpp - 1))
	first := f.Addr(RowID(rpp))
	if first != a0+PageSize {
		t.Fatalf("page boundary: last=%#x first-of-next=%#x base=%#x", last, first, a0)
	}
}

func TestPageMapping(t *testing.T) {
	f := newFile(t, 2, 64, 10000)
	rpp := f.rowsPerPage
	if f.Page(0) != 1000 {
		t.Fatalf("Page(0) = %d, want pageBase 1000", f.Page(0))
	}
	if f.Page(RowID(rpp)) != 1001 {
		t.Fatalf("Page(rpp) = %d", f.Page(RowID(rpp)))
	}
	if f.DiskBlock(0) != 1000 {
		t.Fatalf("DiskBlock(0) = %d", f.DiskBlock(0))
	}
}

// TestNumPages: rows fill one page before spilling to the next.
func TestNumPages(t *testing.T) {
	f := newFile(t, 1, 64, 1000)
	pages := func() bufpool.PageID { return f.Page(RowID(f.NumRows()-1)) - f.pageBase + 1 }
	f.Append(1)
	if pages() != 1 {
		t.Fatalf("pages = %d", pages())
	}
	for i := 0; i < f.rowsPerPage; i++ {
		f.Append(int64(i))
	}
	if pages() != 2 {
		t.Fatalf("pages = %d after spill", pages())
	}
}

func TestPanics(t *testing.T) {
	f := newFile(t, 2, 64, 10)
	for name, fn := range map[string]func(){
		"bad arity": func() { f.Append(1) },
		"bad geom":  func() { New(addr.NewSpace(), "x", 0, 64, 10, 0) },
		"wide row":  func() { New(addr.NewSpace(), "x", 1, PageSize+1, 10, 0) },
		"overflow": func() {
			g := New(addr.NewSpace(), "x", 1, PageSize, 1, 0) // 1 row per page, 1 page
			g.Append(1)
			g.Append(2)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestRowAliasHasCapLimit(t *testing.T) {
	f := newFile(t, 2, 64, 10)
	f.Append(1, 2)
	f.Append(3, 4)
	r := f.Row(0)
	if cap(r) != 2 {
		t.Fatalf("row slice cap %d leaks neighbors", cap(r))
	}
}

func TestAddrsWithinRegionAndDisjointFiles(t *testing.T) {
	space := addr.NewSpace()
	a := New(space, "a", 1, 64, 100, 0)
	b := New(space, "b", 1, 64, 100, 100)
	for i := 0; i < 100; i++ {
		a.Append(int64(i))
		b.Append(int64(i))
	}
	for i := 0; i < 100; i++ {
		if a.Addr(RowID(i)) == b.Addr(RowID(i)) {
			t.Fatal("files share addresses")
		}
	}
	bBase := b.pageBase
	if a.Page(99) >= bBase {
		t.Fatalf("page ranges overlap: %d vs %d", a.Page(99), bBase)
	}
}
