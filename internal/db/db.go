// Package db implements the miniature relational engine that stands in for
// the paper's Oracle 10g server. It is a real executing system: tables hold
// generated rows, B+tree indexes are searched for real, joins and sorts
// compute real results — and every operator reports its work (instruction
// blocks, memory references, buffer-pool page touches, disk waits) to the
// simulated machine. The paper's DSS observations (loopy scan/join/sort
// queries vs. erratic index scans, §6) are reproduced by these mechanisms,
// not scripted.
package db

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/btree"
	"repro/internal/bufpool"
	"repro/internal/disk"
	"repro/internal/heapfile"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// Index is a B+tree over one column of a table.
type Index struct {
	Col  int
	Tree *btree.Tree
}

// Table couples storage with its indexes.
type Table struct {
	File    *heapfile.File
	Indexes map[int]*Index // column -> index
}

// Index returns the index on column col, or nil.
func (t *Table) Index(col int) *Index { return t.Indexes[col] }

// EngineCode is the database server's code layout. Region sizes are chosen
// to mirror the paper's observation that the server executes a very large,
// rather uniformly exercised instruction footprint (§5), while individual
// operators are small loops (§6.1).
type EngineCode struct {
	Executor  *workload.CodeRegion // plan dispatch, expression glue, catalog
	Parser    *workload.CodeRegion // SQL front end (exercised by OLTP)
	SeqScan   *workload.CodeRegion
	IndexScan *workload.CodeRegion
	HashJoin  *workload.CodeRegion
	Sort      *workload.CodeRegion
	Agg       *workload.CodeRegion
	Buffer    *workload.CodeRegion // buffer-pool management
	Txn       *workload.CodeRegion // transaction/log manager (OLTP)
	Idle      *workload.CodeRegion // coordinator idle/bookkeeping loop
}

func newEngineCode(space *addr.Space) *EngineCode {
	return &EngineCode{
		Executor:  workload.NewCodeRegion(space, "db.executor", 9000),
		Parser:    workload.NewCodeRegion(space, "db.parser", 5000),
		SeqScan:   workload.NewCodeRegion(space, "db.seqscan", 24),
		IndexScan: workload.NewCodeRegion(space, "db.indexscan", 96),
		HashJoin:  workload.NewCodeRegion(space, "db.hashjoin", 64),
		Sort:      workload.NewCodeRegion(space, "db.sort", 48),
		Agg:       workload.NewCodeRegion(space, "db.agg", 40),
		Buffer:    workload.NewCodeRegion(space, "db.buffer", 600),
		Txn:       workload.NewCodeRegion(space, "db.txn", 2500),
		Idle:      workload.NewCodeRegion(space, "db.idle", 16),
	}
}

// Config sizes a database instance.
type Config struct {
	// PoolPages is the buffer-cache capacity (the SGA, §2.3).
	PoolPages int
	// DataDisks is the stripe width of the data-disk array.
	DataDisks int
	// DataDisk and LogDisk are the latency profiles.
	DataDisk disk.Config
	LogDisk  disk.Config
}

// DSSConfig mirrors the ODB-H setup: a 2GB SGA against a 30GB database
// (scans spill to disk, hidden mostly by readahead), 32 data disks.
func DSSConfig() Config {
	d := disk.DefaultData()
	d.Sequential = 1200 // readahead-effective sequential service
	return Config{PoolPages: 1200, DataDisks: 32, DataDisk: d, LogDisk: disk.DefaultLog()}
}

// OLTPConfig mirrors the ODB-C setup: a 14GB SGA intended to hold the
// working set (§2.3), so data-page misses are rare but commits always hit
// the log disk.
func OLTPConfig() Config {
	return Config{PoolPages: 60000, DataDisks: 32, DataDisk: disk.DefaultData(), LogDisk: disk.DefaultLog()}
}

// Database is one engine instance: storage, buffer cache, disks, and code.
type Database struct {
	Space  *addr.Space
	Pool   *bufpool.Pool
	Data   *disk.Array
	LogDsk *disk.Array
	Code   *EngineCode
	Tables map[string]*Table

	nextPage bufpool.PageID
	logBlock uint64
	execSeq  int
}

// NewDatabase creates an empty engine on the given address space.
func NewDatabase(space *addr.Space, cfg Config, rng *xrand.Rand) *Database {
	return &Database{
		Space:  space,
		Pool:   bufpool.New(cfg.PoolPages),
		Data:   disk.NewArray(cfg.DataDisk, cfg.DataDisks, rng.Split(0xd15c)),
		LogDsk: disk.NewArray(cfg.LogDisk, 1, rng.Split(0x106)),
		Code:   newEngineCode(space),
		Tables: map[string]*Table{},
	}
}

// Table returns the named table, panicking if absent (schema errors are
// programming errors in this repository).
func (d *Database) Table(name string) *Table {
	t, ok := d.Tables[name]
	if !ok {
		panic(fmt.Sprintf("db: unknown table %q", name))
	}
	return t
}

// CreateTable allocates storage for a table of the given arity and
// capacity.
func (d *Database) CreateTable(name string, arity, rowBytes, maxRows int) *Table {
	if _, dup := d.Tables[name]; dup {
		panic(fmt.Sprintf("db: duplicate table %q", name))
	}
	f := heapfile.New(d.Space, name, arity, rowBytes, maxRows, d.nextPage)
	d.nextPage += bufpool.PageID(f.MaxPages())
	t := &Table{File: f, Indexes: map[int]*Index{}}
	d.Tables[name] = t
	return t
}

// pollRows is how many rows a table fill or an index build runs between
// polls of its stop function: about a millisecond of work at the default
// scale, so a cancelled build returns within about that.
const pollRows = 4096

// stopAt reports whether row i of a fill or index build is a poll point
// and stop reports true there.
func stopAt(i int, stop func() bool) bool {
	return i%pollRows == pollRows-1 && stop()
}

// CreateIndex builds a B+tree over the existing rows of column col. It
// polls stop every pollRows rows and returns nil, registering no index,
// once stop reports true.
func (d *Database) CreateIndex(t *Table, col int, stop func() bool) *Index {
	if _, dup := t.Indexes[col]; dup {
		panic(fmt.Sprintf("db: duplicate index on %s.%d", t.File.Name(), col))
	}
	next := uint64(0)
	region := d.Space.AllocData(fmt.Sprintf("index.%s.%d", t.File.Name(), col),
		uint64(t.File.NumRows()/16+64)*btree.NodeSize)
	alloc := func(size uint64) uint64 {
		a := region.Base + next
		next += size
		if next > region.Size {
			// Wrap rather than fail: address realism matters more than
			// a strict reservation for very deep trees.
			next = 0
		}
		return a
	}
	tree := btree.New(64, alloc)
	for i := 0; i < t.File.NumRows(); i++ {
		if stopAt(i, stop) {
			return nil
		}
		tree.Insert(t.File.Col(heapfile.RowID(i), col), int64(i))
	}
	idx := &Index{Col: col, Tree: tree}
	t.Indexes[col] = idx
	return idx
}

// NextLogBlock returns the next log-disk block (commits append).
func (d *Database) NextLogBlock() uint64 {
	d.logBlock++
	return d.logBlock
}

// Schema column positions for the DSS database (TPC-H-like, §2.1).
const (
	// customer(custkey, mktsegment, nationkey, acctbal)
	CustKey, CustSegment, CustNation, CustBalance = 0, 1, 2, 3
	// orders(orderkey, custkey, orderdate, totalprice, status)
	OrdKey, OrdCust, OrdDate, OrdPrice, OrdStatus = 0, 1, 2, 3, 4
	// lineitem(orderkey, partkey, suppkey, quantity, extprice, discount, shipdate, returnflag)
	LiOrder, LiPart, LiSupp, LiQty, LiPrice, LiDisc, LiShip, LiFlag = 0, 1, 2, 3, 4, 5, 6, 7
	// part(partkey, brand, type, size)
	PartKey, PartBrand, PartType, PartSize = 0, 1, 2, 3
	// supplier(suppkey, nationkey, acctbal)
	SuppKey, SuppNation, SuppBalance = 0, 1, 2
)

// DSSScale sizes the DSS database. The ratios follow TPC-H (1 customer :
// 10 orders : 40 lineitems); the absolute size is set so one sequential
// lineitem scan spans tens of EIPV intervals, as the paper's 30GB/Q13
// combination does at full scale.
type DSSScale struct {
	Customers int
	Orders    int
	Lineitems int
	Parts     int
	Suppliers int
}

// DefaultDSSScale returns the scale used by the experiments. Customers are
// numerous relative to orders so that hash-build phases span several EIPV
// intervals (the paper's full-scale phases are all interval-scale or
// longer).
func DefaultDSSScale() DSSScale {
	return DSSScale{Customers: 24000, Orders: 60000, Lineitems: 150000, Parts: 4000, Suppliers: 500}
}

// BuildDSS generates the DSS database: real rows with correlated keys, and
// the indexes the index-scan queries need (orders(custkey),
// lineitem(orderkey), orders(orderkey)). It polls stop between tables,
// before each index and every pollRows rows inside the customer, orders
// and lineitem fills and the index builds, and returns nil once stop
// reports true. Polling draws nothing from the generator, so a build that
// is not stopped is the same database however often it polls.
func BuildDSS(space *addr.Space, cfg Config, scale DSSScale, seed uint64, stop func() bool) *Database {
	rng := xrand.New(seed)
	d := NewDatabase(space, cfg, rng)

	cust := d.CreateTable("customer", 4, 96, scale.Customers)
	for i := 0; i < scale.Customers; i++ {
		if stopAt(i, stop) {
			return nil
		}
		cust.File.Append(int64(i), int64(rng.Intn(5)), int64(rng.Intn(25)), int64(rng.Range(-999, 9999)))
	}

	if stop() {
		return nil
	}
	// Order placement is skewed: a minority of customers place most
	// orders, which is what gives Q13's distribution-of-order-counts its
	// shape and Q18's "large quantity" customers their existence.
	custZipf := xrand.NewZipf(scale.Customers, 0.6)
	ord := d.CreateTable("orders", 5, 128, scale.Orders)
	for i := 0; i < scale.Orders; i++ {
		if stopAt(i, stop) {
			return nil
		}
		ord.File.Append(int64(i), int64(custZipf.Draw(rng)), int64(rng.Intn(2406)),
			int64(rng.Range(100, 500000)), int64(rng.Intn(3)))
	}

	if stop() {
		return nil
	}
	li := d.CreateTable("lineitem", 8, 144, scale.Lineitems)
	for i := 0; i < scale.Lineitems; i++ {
		if stopAt(i, stop) {
			return nil
		}
		o := int64(i * scale.Orders / scale.Lineitems) // clustered by order
		li.File.Append(o, int64(rng.Intn(scale.Parts)), int64(rng.Intn(scale.Suppliers)),
			int64(rng.Range(1, 50)), int64(rng.Range(100, 100000)), int64(rng.Intn(11)),
			int64(rng.Intn(2557)), int64(rng.Intn(3)))
	}

	if stop() {
		return nil
	}
	part := d.CreateTable("part", 4, 96, scale.Parts)
	for i := 0; i < scale.Parts; i++ {
		part.File.Append(int64(i), int64(rng.Intn(25)), int64(rng.Intn(150)), int64(rng.Range(1, 50)))
	}

	if stop() {
		return nil
	}
	supp := d.CreateTable("supplier", 3, 96, scale.Suppliers)
	for i := 0; i < scale.Suppliers; i++ {
		supp.File.Append(int64(i), int64(rng.Intn(25)), int64(rng.Range(-999, 9999)))
	}

	for _, ix := range []struct {
		t   *Table
		col int
	}{{ord, OrdCust}, {ord, OrdKey}, {li, LiOrder}, {cust, CustKey}} {
		if stop() || d.CreateIndex(ix.t, ix.col, stop) == nil {
			return nil
		}
	}
	return d
}
