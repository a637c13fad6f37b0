// Package heapfile implements the database engine's table storage: pages
// of fixed-arity rows laid out in the simulated address space.
//
// A heap file is both a real container (the query operators read actual
// row values out of it) and a memory/I-O model: every row has a simulated
// address for the cache hierarchy, and every row belongs to a page for the
// buffer pool and disks. Sequential scans therefore enjoy spatial locality
// in the cache simulator exactly the way Q13's table scans do in the paper,
// while index-driven row fetches jump around (§6).
package heapfile

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/bufpool"
)

// PageSize is the simulated page size in bytes (Oracle-style 8KB).
const PageSize = 8192

// RowID identifies a row within a file.
type RowID int64

// File is one table's storage.
type File struct {
	name        string
	arity       int
	rowBytes    int
	rowsPerPage int
	region      addr.Region
	pageBase    bufpool.PageID
	data        []int64 // rows, flattened: row i at data[i*arity : (i+1)*arity]
}

// New creates an empty heap file for rows of the given arity. rowBytes is
// the simulated on-disk/in-memory row width; maxRows bounds the address
// reservation. pageBase is the file's first global page id (the catalog
// keeps page-id ranges disjoint across files).
func New(space *addr.Space, name string, arity, rowBytes, maxRows int, pageBase bufpool.PageID) *File {
	if arity <= 0 || rowBytes <= 0 || maxRows <= 0 {
		panic(fmt.Sprintf("heapfile: New(%q, arity=%d, rowBytes=%d, maxRows=%d)", name, arity, rowBytes, maxRows))
	}
	if rowBytes > PageSize {
		panic(fmt.Sprintf("heapfile: row width %d exceeds page size", rowBytes))
	}
	rpp := PageSize / rowBytes
	pages := (maxRows + rpp - 1) / rpp
	region := space.AllocData("table."+name, uint64(pages)*PageSize)
	return &File{
		name:        name,
		arity:       arity,
		rowBytes:    rowBytes,
		rowsPerPage: rpp,
		// The row store's capacity bound is fixed here, so size it once
		// up front: bulk table loads append millions of rows, and growth
		// re-copies would dominate a cold collection's heap traffic.
		data:     make([]int64, 0, maxRows*arity),
		region:   region,
		pageBase: pageBase,
	}
}

// Name returns the table name.
func (f *File) Name() string { return f.name }

// NumRows returns the number of stored rows.
func (f *File) NumRows() int { return len(f.data) / f.arity }

// MaxPages returns the reserved page capacity.
func (f *File) MaxPages() int { return int(f.region.Size / PageSize) }

// Append stores a row and returns its id. It panics on wrong arity or if
// the reservation is exhausted.
func (f *File) Append(row ...int64) RowID {
	if len(row) != f.arity {
		panic(fmt.Sprintf("heapfile %s: append arity %d, want %d", f.name, len(row), f.arity))
	}
	id := RowID(f.NumRows())
	if int(id)/f.rowsPerPage >= f.MaxPages() {
		panic(fmt.Sprintf("heapfile %s: capacity exceeded at row %d", f.name, id))
	}
	f.data = append(f.data, row...)
	return id
}

// Row returns the row's values. The returned slice aliases internal
// storage and must not be modified.
func (f *File) Row(id RowID) []int64 {
	i := int(id) * f.arity
	return f.data[i : i+f.arity : i+f.arity]
}

// Col returns one column of a row.
func (f *File) Col(id RowID, col int) int64 {
	return f.data[int(id)*f.arity+col]
}

// Addr returns the simulated address of the row.
func (f *File) Addr(id RowID) uint64 {
	page := int(id) / f.rowsPerPage
	slot := int(id) % f.rowsPerPage
	return f.region.Base + uint64(page)*PageSize + uint64(slot*f.rowBytes)
}

// Page returns the global page id holding the row.
func (f *File) Page(id RowID) bufpool.PageID {
	return f.pageBase + bufpool.PageID(int(id)/f.rowsPerPage)
}

// DiskBlock returns the disk block number for the row's page (pages map
// 1:1 to disk blocks).
func (f *File) DiskBlock(id RowID) uint64 { return uint64(f.Page(id)) }
