package experiment

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/cpu"
	"repro/internal/eipv"
	"repro/internal/osim"
	"repro/internal/rtree"
	"repro/internal/workload"
)

// stubResult is cheap to construct; resultCost gives it the flat floor.
func stubResult() *Result { return &Result{} }

// TestCacheCostAccounting checks that CacheStats reports every counter
// of the flight primitive under its own name, through one scripted
// sequence: a flight held open counts in InFlight, not Entries, and a
// caller that joins it in Shared; a failed flight is a miss that retains
// nothing; an entry cap evicts least recently used entries and shows in
// CapEntries; a re-get is a hit; CostBytes follows retention, and an
// invalidation empties the cache and is counted. The behaviour behind
// each counter is tested in internal/flight; this test locks the
// mapping.
func TestCacheCostAccounting(t *testing.T) {
	ctx := context.Background()
	c := newAnalyzeCache()
	cost := resultCost(stubResult())
	put := func(key string) {
		t.Helper()
		if _, err := c.Get(ctx, key, func(context.Context) (*Result, error) {
			return stubResult(), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	check := func(step string, want CacheStats) {
		t.Helper()
		if got := c.stats(); got != want {
			t.Fatalf("%s: stats %+v, want %+v", step, got, want)
		}
	}

	// A flight held open, and a second caller that joins it.
	started, release := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := c.Get(ctx, "open", func(context.Context) (*Result, error) {
			close(started)
			<-release
			return stubResult(), nil
		}); err != nil {
			t.Errorf("get: %v", err)
		}
	}()
	<-started
	check("during the flight", CacheStats{Misses: 1, InFlight: 1})
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := c.Get(ctx, "open", func(context.Context) (*Result, error) {
			t.Error("a caller of a running flight started another")
			return nil, errors.New("duplicate flight")
		}); err != nil {
			t.Errorf("joined get: %v", err)
		}
	}()
	for deadline := time.Now().Add(10 * time.Second); c.stats().Shared == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the second caller never joined the flight")
		}
	}
	close(release)
	wg.Wait()
	check("after the flight", CacheStats{Misses: 1, Shared: 1, Entries: 1, CostBytes: cost})

	// A failed flight is a miss and is not retained.
	boom := errors.New("pipeline exploded")
	if _, err := c.Get(ctx, "bad", func(context.Context) (*Result, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	check("after a failure", CacheStats{Misses: 2, Shared: 1, Entries: 1, CostBytes: cost})

	// Cap 2: three more keys evict "open", then k1.
	if prev := c.SetCap(2); prev != 0 {
		t.Fatalf("SetCap returned prev %d, want 0", prev)
	}
	put("k1")
	put("k2")
	put("k3")
	check("past the cap", CacheStats{Misses: 5, Shared: 1, Evictions: 2, Entries: 2, CostBytes: 2 * cost, CapEntries: 2})
	put("k3")
	check("a re-get", CacheStats{Hits: 1, Misses: 5, Shared: 1, Evictions: 2, Entries: 2, CostBytes: 2 * cost, CapEntries: 2})
	put("k1")
	check("an evicted key", CacheStats{Hits: 1, Misses: 6, Shared: 1, Evictions: 3, Entries: 2, CostBytes: 2 * cost, CapEntries: 2})

	// Lowering the cap evicts at once.
	c.SetCap(1)
	check("cap 1", CacheStats{Hits: 1, Misses: 6, Shared: 1, Evictions: 4, Entries: 1, CostBytes: cost, CapEntries: 1})

	c.invalidate()
	check("after invalidation", CacheStats{Hits: 1, Misses: 6, Shared: 1, Evictions: 4, Invalidations: 1, CapEntries: 1})

	// A result's EIPV rows cost 8 bytes per entry (int32 rank and count),
	// and their EIP table 8 bytes per EIP, charged once for the set. Its
	// indexed matrix costs 24 bytes per row, 16 per feature, 4 per bin and
	// 16 per entry (row CSR with bins, and the column index).
	rows := func(table int, entries ...int) *Result {
		set := &eipv.Set{EIPTable: make([]uint64, table)}
		for _, n := range entries {
			set.Vectors = append(set.Vectors, eipv.Vector{Ranks: make([]int32, n), Counts: make([]int32, n)})
		}
		return &Result{Set: set}
	}
	indexed := func() *Result {
		r := rows(10, 3, 5)
		r.Matrix = rtree.FromCSR([]uint64{1, 2, 3}, []float64{1, 2},
			[]int32{0, 2, 4}, []int32{0, 1, 1, 2}, []int32{1, 1, 1, 1})
		return r
	}
	base := resultCost(rows(10, 3, 5))
	for what, tc := range map[string]struct {
		r    *Result
		want int64
	}{
		"one more row entry":        {rows(10, 4, 5), base + 8},
		"one more EIP in the table": {rows(11, 3, 5), base + 8},
		"ten more of each":          {rows(20, 13, 5), base + 10*8 + 10*8},
		"an empty row":              {rows(10, 3, 5, 0), base + resultCost(rows(0, 0)) - resultCost(rows(0))},
		"an indexed matrix":         {indexed(), base + 2*24 + 3*16 + 3*4 + 4*16},
	} {
		if got := resultCost(tc.r); got != tc.want {
			t.Errorf("%s: cost %d, want %d", what, got, tc.want)
		}
	}
}

// TestCacheKeyCanonical: every analysis option and every machine field
// reaches the key, the worker count does not, and a hand-built machine keys by
// value, L3 included, not by pointer.
func TestCacheKeyCanonical(t *testing.T) {
	base := fast().withDefaults()
	key := cacheKey("spec.gzip", base)

	same := base
	same.Parallelism = 7
	l3 := *base.Machine.L3
	same.Machine.L3 = &l3
	if got := cacheKey("spec.gzip", same); got != key {
		t.Errorf("the worker count or an equal L3 copy changed the key:\n%s\n%s", got, key)
	}

	changes := map[string]func(o *Options){
		"workload":        nil,
		"Intervals":       func(o *Options) { o.Intervals++ },
		"Warmup":          func(o *Options) { o.Warmup++ },
		"Seed":            func(o *Options) { o.Seed++ },
		"IntervalInsts":   func(o *Options) { o.IntervalInsts++ },
		"PeriodOverride":  func(o *Options) { o.PeriodOverride++ },
		"ThreadSeparated": func(o *Options) { o.ThreadSeparated = !o.ThreadSeparated },
		"MaxLeaves":       func(o *Options) { o.MaxLeaves++ },
		"Folds":           func(o *Options) { o.Folds++ },
		"machine preset":  func(o *Options) { o.Machine = cpu.PentiumIV() },
		"L3 size": func(o *Options) {
			l3 := *o.Machine.L3
			l3.Size *= 2
			o.Machine.L3 = &l3
		},
		"mispredict penalty": func(o *Options) { o.Machine.MispredictPenalty++ },
	}
	for field, change := range changes {
		opt, name := base, "spec.gzip"
		if change == nil {
			name = "spec.gcc"
		} else {
			change(&opt)
		}
		if cacheKey(name, opt) == key {
			t.Errorf("changing %s left the key unchanged", field)
		}
	}
}

// endlessRunner retires the same block forever. It reports the first
// Pending on started and the scheduler's exit on stopped: it is
// trace-buffered, so the scheduler calls StopLookahead on every exit path.
type endlessRunner struct {
	run              []cpu.BlockEvent
	started, stopped chan struct{}
	once             sync.Once
}

func (r *endlessRunner) Pending() ([]cpu.BlockEvent, uint64) {
	r.once.Do(func() { close(r.started) })
	return r.run, 0
}
func (r *endlessRunner) Consume(int)                    {}
func (r *endlessRunner) StartLookahead(*osim.TracePool) {}
func (r *endlessRunner) StopLookahead()                 { close(r.stopped) }

// endlessWL is a one-thread workload that never finishes on its own. Each
// Setup hands its runner to the test on endlessRunners.
type endlessWL struct{}

var endlessRunners = make(chan *endlessRunner, 1)

func init() {
	workload.Register("test.endless", func() workload.Workload { return endlessWL{} })
}

func (endlessWL) Name() string { return "test.endless" }

// SamplePeriod is huge so the sampler reserves room for two samples only.
func (endlessWL) SamplePeriod() uint64 { return 1 << 60 }

func (endlessWL) Setup(sched *osim.Sched, space *addr.Space, seed uint64) {
	b := workload.NewCodeRegion(space, "endless", 1).PC(0)
	r := &endlessRunner{
		run:     []cpu.BlockEvent{{PC: b.PC, ID: b.ID, Insts: 10, BaseCPI: 1}},
		started: make(chan struct{}),
		stopped: make(chan struct{}),
	}
	sched.Add(r)
	endlessRunners <- r
}

// TestCacheLastWaiterCancelAbortsFlight: when the only caller of an
// analysis leaves, the flight's context reaches the collection through
// the profile store and stops the simulation. The workload would
// otherwise retire instructions for hours.
func TestCacheLastWaiterCancelAbortsFlight(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	gone := make(chan error, 1)
	go func() {
		_, err := AnalyzeCtx(ctx, "test.endless", Options{Intervals: 1 << 20, Parallelism: 1})
		gone <- err
	}()
	r := <-endlessRunners
	<-r.started
	cancel()
	if err := <-gone; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	select {
	case <-r.stopped:
	case <-time.After(30 * time.Second):
		t.Fatal("the simulation kept running after its only caller left")
	}
	waitFor(t, 5*time.Second, func() bool { return AnalysisCacheStats().InFlight == 0 })
}

// waitFor polls cond until it holds or within has passed.
func waitFor(t *testing.T, within time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("condition not reached within %v", within)
}

// waitIdle waits until no Analyze flight and no collection flight is
// running. A test that asserts exact profile-store counter deltas calls
// it first: a flight an earlier test left finishing (a cancelled Table 2
// row, say) would otherwise count its miss, and write its entry to a
// freshly attached profile directory, inside this test's window.
func waitIdle(t *testing.T) {
	t.Helper()
	waitFor(t, 30*time.Second, func() bool {
		return AnalysisCacheStats().InFlight == 0 && ProfileStoreStats().InFlight == 0
	})
}
