package db

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/heapfile"
	"repro/internal/workload"
)

// Inherent (all-hit) CPI of the engine's code paths. Scan loops are
// ILP-friendly; pointer-chasing paths are not.
const (
	cpiSeqScan   = 0.45
	cpiIndexScan = 0.70
	cpiHashJoin  = 0.55
	cpiSort      = 0.50
	cpiAgg       = 0.55
	cpiBuffer    = 0.80
	cpiExecutor  = 0.70
	cpiParser    = 0.75
	cpiTxn       = 0.70
)

// Exec is one worker's execution context: it owns the worker's hash and
// sort work areas in the simulated address space and translates operator
// work into block events, buffer-pool touches, and disk waits.
//
// An Exec is bound to an Emitter per burst (the scheduler drains between
// bursts), and is used by exactly one simulated thread.
type Exec struct {
	DB *Database
	em *workload.Emitter

	hashArea addr.Region
	sortArea addr.Region

	// DisableIO turns page misses into pure CPU events (used by unit
	// tests and by memory-resident OLTP working sets).
	DisableIO bool
}

// NewExec creates a worker context on d. The workarea sequence number
// lives on the Database (not in a package global) so concurrent
// simulations of independent databases neither race nor perturb each
// other's region labels.
func NewExec(d *Database) *Exec {
	d.execSeq++
	return &Exec{
		DB:       d,
		hashArea: d.Space.AllocData(fmt.Sprintf("workarea.hash.%d", d.execSeq), 4<<20),
		sortArea: d.Space.AllocData(fmt.Sprintf("workarea.sort.%d", d.execSeq), 2<<20),
	}
}

// Bind attaches the emitter for the current burst.
func (x *Exec) Bind(em *workload.Emitter) { x.em = em }

// emit sends a one-off block event.
func (x *Exec) emit(b workload.BlockRef, insts int, baseCPI float64) {
	ev := x.em.Alloc()
	b.Assign(ev)
	ev.Insts = int32(insts)
	ev.BaseCPI = baseCPI
	x.em.Commit(ev)
}

// emitMem sends a block event with one memory reference and an optional
// data-dependent branch.
func (x *Exec) emitMem(b workload.BlockRef, insts int, baseCPI float64, memAddr uint64, hasBranch, taken bool) {
	ev := x.em.Alloc()
	b.Assign(ev)
	ev.Insts = int32(insts)
	ev.BaseCPI = baseCPI
	ev.AddMem(memAddr)
	ev.HasBranch = hasBranch
	ev.Taken = taken
	x.em.Commit(ev)
}

// Glue emits executor-glue blocks (plan dispatch, expression evaluation)
// wandering the big executor region.
func (x *Exec) Glue(blocks int) {
	for i := 0; i < blocks; i++ {
		x.emit(x.DB.Code.Executor.HotPC(), 12, cpiExecutor)
	}
}

// pageIn touches the page through the buffer pool; a miss costs
// buffer-manager code plus a disk wait.
func (x *Exec) pageIn(f *heapfile.File, id heapfile.RowID) {
	page := f.Page(id)
	if x.DB.Pool.Access(page) {
		return
	}
	// Buffer-manager replacement path.
	for i := 0; i < 3; i++ {
		x.emit(x.DB.Code.Buffer.NextPC(), 14, cpiBuffer)
	}
	if !x.DisableIO {
		x.em.Wait(x.DB.Data.Read(f.DiskBlock(id)))
	}
}

// TouchRow reads a row through the pool and cache hierarchy, charging the
// given operator block. taken is the data-dependent branch outcome (e.g. a
// predicate result).
func (x *Exec) TouchRow(b workload.BlockRef, f *heapfile.File, id heapfile.RowID, insts int, baseCPI float64, taken bool) {
	x.pageIn(f, id)
	a := f.Addr(id)
	ev := x.em.Alloc()
	b.Assign(ev)
	ev.Insts = int32(insts)
	ev.BaseCPI = baseCPI
	ev.AddMem(a)
	ev.AddMem(a + 64) // rows span two cache lines
	ev.HasBranch = true
	ev.Taken = taken
	x.em.Commit(ev)
}

// TouchNode charges an index-node visit (B+tree descent step). The binary
// search within a node touches multiple lines of its key array.
func (x *Exec) TouchNode(nodeAddr uint64, taken bool) {
	ev := x.em.Alloc()
	x.DB.Code.IndexScan.NextPC().Assign(ev)
	ev.Insts = 9
	ev.BaseCPI = cpiIndexScan
	ev.AddMem(nodeAddr)
	ev.AddMem(nodeAddr + 1024)
	ev.HasBranch = true
	ev.Taken = taken
	x.em.Commit(ev)
}

// HashBucketAddr maps a hash key into the worker's hash area.
func (x *Exec) HashBucketAddr(key int64) uint64 {
	h := uint64(key) * 0x9e3779b97f4a7c15
	buckets := x.hashArea.Size / 64
	return x.hashArea.Base + (h%buckets)*64
}

// SortSlotAddr maps an element index into the worker's sort area
// (sequential layout, so merge passes stream).
func (x *Exec) SortSlotAddr(i int) uint64 {
	slots := x.sortArea.Size / 32
	return x.sortArea.Base + (uint64(i)%slots)*32
}

// EmitPlain emits a compute-only block with a data-dependent branch — the
// OLTP server's glue-code currency.
func (x *Exec) EmitPlain(b workload.BlockRef, insts int, baseCPI float64, taken bool) {
	ev := x.em.Alloc()
	b.Assign(ev)
	ev.Insts = int32(insts)
	ev.BaseCPI = baseCPI
	ev.HasBranch = true
	ev.Taken = taken
	x.em.Commit(ev)
}

// WalkParser charges n blocks of SQL front-end code.
func (x *Exec) WalkParser(n int) {
	for i := 0; i < n; i++ {
		x.emit(x.DB.Code.Parser.HotPC(), 12, cpiParser)
	}
}

// TouchRowRW reads or writes a row by raw row id through the pool and
// cache, charging transaction-manager code (the OLTP row access path).
func (x *Exec) TouchRowRW(f *heapfile.File, id int64, insts int, write bool) {
	rid := heapfile.RowID(id)
	x.pageIn(f, rid)
	a := f.Addr(rid)
	ev := x.em.Alloc()
	x.DB.Code.Txn.HotPC().Assign(ev)
	ev.Insts = int32(insts)
	ev.BaseCPI = cpiTxn
	ev.AddMem(a)
	ev.AddMem(a + 64)
	ev.HasBranch = true
	ev.Taken = write
	x.em.Commit(ev)
}

// LogWrite emits a transaction-commit log append: txn-manager code plus a
// blocking write to the log disk. This is OLTP's main source of voluntary
// context switches.
func (x *Exec) LogWrite() {
	for i := 0; i < 4; i++ {
		x.emit(x.DB.Code.Txn.HotPC(), 13, cpiTxn)
	}
	if !x.DisableIO {
		x.em.Wait(x.DB.LogDsk.Write(x.DB.NextLogBlock()))
	}
}
