// Package oltp implements the ODB-C analog: a multi-client order-entry
// transaction workload over the miniature database engine, mirroring the
// paper's Oracle-based OLTP setup (§2).
//
// The behaviours the paper attributes to ODB-C all arise mechanically here:
//
//   - a very large, flatly-exercised code footprint (SQL parsing, plan
//     dispatch, transaction management, server networking) produces tens of
//     thousands of unique sampled EIPs and persistent I-cache pressure;
//   - random index probes into tables much larger than the L3 make the EXE
//     (L3-miss) stall component dominate CPI (§5.1, Figure 4);
//   - every commit blocks on the log disk and every client waits on its
//     network "think time", producing thousands of voluntary context
//     switches per second and ~15% OS time (§5.2);
//   - dozens of transactions complete per EIPV interval, so interval CPI
//     averages to a nearly constant value — low CPI variance, quadrant Q-I.
package oltp

import (
	"repro/internal/addr"
	"repro/internal/db"
	"repro/internal/osim"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// Scale sizes the OLTP database (the paper uses 800 warehouses; the
// simulated footprint keeps the same relationship to the cache hierarchy —
// data far larger than the L3, working set inside the SGA).
type Scale struct {
	Warehouses int
	Customers  int
	StockItems int
	MaxOrders  int
}

// DefaultScale is used by the experiments.
func DefaultScale() Scale {
	return Scale{Warehouses: 64, Customers: 30000, StockItems: 80000, MaxOrders: 400000}
}

// Column layout of the OLTP tables.
const (
	wID, wYtd                            = 0, 1
	cID, cWarehouse, cBalance, cPayments = 0, 1, 2, 3
	sID, sQuantity, sYtd                 = 0, 1, 2
	oID, oCustomer, oCarrier             = 0, 1, 2
)

// Config tunes the workload.
type Config struct {
	Clients int
	Scale   Scale
	// ThinkCycles is the mean client think time between transactions, in
	// cycles; it sets CPU utilization and the voluntary switch rate.
	ThinkCycles float64
}

// DefaultConfig mirrors the paper's 56-client, ~95%-utilization tuning at
// simulation scale.
func DefaultConfig() Config {
	return Config{Clients: 32, Scale: DefaultScale(), ThinkCycles: 1100}
}

// Workload is the ODB-C analog.
type Workload struct {
	cfg Config

	// DB is available after Setup.
	DB *db.Database
	// Clients exposes per-client transaction counts after the run.
	Clients []*client

	serverCode *workload.CodeRegion
	netCode    *workload.CodeRegion
}

// New returns the workload with default configuration.
func New() *Workload { return &Workload{cfg: DefaultConfig()} }

// Name implements workload.Workload.
func (w *Workload) Name() string { return "odb-c" }

// SamplePeriod implements workload.Workload.
func (w *Workload) SamplePeriod() uint64 { return workload.SamplePeriod }

// Setup implements workload.Workload.
func (w *Workload) Setup(sched *osim.Sched, space *addr.Space, seed uint64) {
	rng := xrand.New(seed ^ 0x01dc)
	if w.DB = buildDB(space, w.cfg.Scale, rng, sched.Stopped); w.DB == nil {
		return
	}
	w.serverCode = workload.NewCodeRegion(space, "oltp.server", 7000)
	w.netCode = workload.NewCodeRegion(space, "oltp.net", 3000)
	// The Zipf tables are pure functions of (n, s) and Draw never mutates
	// them, so all clients share one pair instead of each paying the
	// math.Pow construction sweep.
	zipC := xrand.NewZipf(w.cfg.Scale.Customers, 0.85)
	zipS := xrand.NewZipf(w.cfg.Scale.StockItems, 0.8)
	for i := 0; i < w.cfg.Clients; i++ {
		c := &client{
			w:    w,
			x:    db.NewExec(w.DB),
			rng:  rng.Split(uint64(i) + 1000),
			zipC: zipC,
			zipS: zipS,
		}
		w.Clients = append(w.Clients, c)
		sched.Add(workload.NewRunner(c))
	}
}

// buildDB generates the OLTP database. It polls stop between tables,
// before each index and inside each index build, and returns nil once
// stop reports true.
func buildDB(space *addr.Space, s Scale, rng *xrand.Rand, stop func() bool) *db.Database {
	d := db.NewDatabase(space, db.OLTPConfig(), rng)

	wh := d.CreateTable("warehouse", 2, 96, s.Warehouses)
	for i := 0; i < s.Warehouses; i++ {
		wh.File.Append(int64(i), 0)
	}

	if stop() {
		return nil
	}
	cust := d.CreateTable("customer", 4, 168, s.Customers)
	for i := 0; i < s.Customers; i++ {
		cust.File.Append(int64(i), int64(i%s.Warehouses), int64(rng.Range(-500, 5000)), 0)
	}

	if stop() {
		return nil
	}
	stock := d.CreateTable("stock", 3, 144, s.StockItems)
	for i := 0; i < s.StockItems; i++ {
		stock.File.Append(int64(i), int64(rng.Range(10, 100)), 0)
	}

	if stop() {
		return nil
	}
	ord := d.CreateTable("orders", 3, 96, s.MaxOrders)
	// Pre-load some history so status/delivery transactions have targets.
	for i := 0; i < s.MaxOrders/10; i++ {
		ord.File.Append(int64(i), int64(rng.Intn(s.Customers)), int64(rng.Intn(10)))
	}

	for _, ix := range []struct {
		t   *db.Table
		col int
	}{{cust, cID}, {stock, sID}} {
		if stop() || d.CreateIndex(ix.t, ix.col, stop) == nil {
			return nil
		}
	}
	return d
}

// Transaction types in the mix (TPC-C-like weights).
const (
	txNewOrder = iota
	txPayment
	txOrderStatus
	txDelivery
	txStockLevel
	txKinds
)

// client is one simulated database client connection.
type client struct {
	w    *Workload
	x    *db.Exec
	rng  *xrand.Rand
	zipC *xrand.Zipf
	zipS *xrand.Zipf

	// TxCounts tallies executed transactions by type.
	TxCounts [txKinds]int
}

// Burst implements workload.Gen: one transaction followed by think time.
func (c *client) Burst(e *workload.Emitter) {
	c.x.Bind(e)
	kind := c.pickTx()
	c.TxCounts[kind]++

	c.netReceive()
	c.parseAndPlan()
	switch kind {
	case txNewOrder:
		c.newOrder()
	case txPayment:
		c.payment()
	case txOrderStatus:
		c.orderStatus()
	case txDelivery:
		c.delivery()
	case txStockLevel:
		c.stockLevel()
	}
	c.netReply()
	e.Wait(uint64(c.rng.Exp(c.w.cfg.ThinkCycles)) + 1)
}

func (c *client) pickTx() int {
	v := c.rng.Intn(100)
	switch {
	case v < 45:
		return txNewOrder
	case v < 88:
		return txPayment
	case v < 92:
		return txOrderStatus
	case v < 96:
		return txDelivery
	default:
		return txStockLevel
	}
}

// walk emits n blocks wandering a code region (server code paths are large
// and flat — the paper's "non-loopy code").
func (c *client) walk(region *workload.CodeRegion, n int, baseCPI float64) {
	for i := 0; i < n; i++ {
		c.emitWalk(region, baseCPI)
	}
}

func (c *client) emitWalk(region *workload.CodeRegion, baseCPI float64) {
	pc := region.HotPC()
	// Server code takes data-dependent branches constantly.
	c.x.EmitPlain(pc, 13, baseCPI, c.rng.Bool(0.6))
}

func (c *client) netReceive() { c.walk(c.w.netCode, 5, 0.85) }
func (c *client) netReply()   { c.walk(c.w.netCode, 4, 0.85) }

// parseAndPlan charges the SQL front end and plan dispatch: a wide walk
// over the parser and executor regions.
func (c *client) parseAndPlan() {
	c.x.WalkParser(7)
	c.walk(c.w.serverCode, 8, 0.8)
	c.x.Glue(5)
}

// probe looks up a row by key through its index and touches it.
func (c *client) probe(table string, col int, key int64, write bool) {
	t := c.w.DB.Table(table)
	idx := t.Index(col)
	tree := idx.Tree
	rowid, ok := tree.Search(key, func(a uint64) { c.x.TouchNode(a, true) })
	if !ok {
		return
	}
	c.x.TouchRowRW(t.File, rowid, 12, write)
}

func (c *client) newOrder() {
	s := &c.w.cfg.Scale
	cust := int64(c.zipC.Draw(c.rng))
	c.probe("customer", cID, cust, false)
	const items = 4 // order lines per new-order transaction
	for i := 0; i < items; i++ {
		c.probe("stock", sID, int64(c.zipS.Draw(c.rng)), true)
		c.walk(c.w.serverCode, 2, 0.8)
	}
	// Insert the order row (real append while capacity lasts; afterwards
	// the steady-state updates stand in for inserts).
	ord := c.w.DB.Table("orders").File
	if ord.NumRows() < s.MaxOrders {
		id := ord.Append(int64(ord.NumRows()), cust, 0)
		c.x.TouchRowRW(ord, int64(id), 10, true)
	}
	c.x.LogWrite()
}

func (c *client) payment() {
	c.probe("customer", cID, int64(c.zipC.Draw(c.rng)), true)
	// Warehouses are few and unindexed: direct row touch by key.
	wh := c.w.DB.Table("warehouse").File
	c.x.TouchRowRW(wh, int64(c.rng.Intn(c.w.cfg.Scale.Warehouses)), 10, true)
	c.walk(c.w.serverCode, 6, 0.8)
	c.x.LogWrite()
}

func (c *client) orderStatus() {
	c.probe("customer", cID, int64(c.zipC.Draw(c.rng)), false)
	ord := c.w.DB.Table("orders").File
	n := ord.NumRows()
	if n > 0 {
		for i := 0; i < 3; i++ {
			c.x.TouchRowRW(ord, int64(c.rng.Intn(n)), 9, false)
		}
	}
}

func (c *client) delivery() {
	ord := c.w.DB.Table("orders").File
	n := ord.NumRows()
	if n == 0 {
		return
	}
	start := c.rng.Intn(n)
	for i := 0; i < 6 && start+i < n; i++ {
		c.x.TouchRowRW(ord, int64(start+i), 9, true)
	}
	c.x.LogWrite()
}

func (c *client) stockLevel() {
	s := &c.w.cfg.Scale
	base := c.rng.Intn(s.StockItems - 32)
	for i := 0; i < 32; i++ {
		c.x.TouchRowRW(c.w.DB.Table("stock").File, int64(base+i), 8, false)
	}
	c.x.Glue(3)
}

func init() {
	workload.Register("odb-c", func() workload.Workload { return New() })
}
