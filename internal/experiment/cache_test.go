package experiment

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/cpu"
	"repro/internal/osim"
	"repro/internal/workload"
)

// stubResult is cheap to construct; resultCost gives it the flat floor.
func stubResult() *Result { return &Result{} }

// TestCacheInFlightNotCountedAsEntries is the regression test for the
// stats bug where in-flight singleflight slots inflated Entries: a running
// computation must show up in InFlight, not Entries, and move over only
// when it completes and is retained.
func TestCacheInFlightNotCountedAsEntries(t *testing.T) {
	c := newAnalyzeCache()
	started := make(chan struct{})
	release := make(chan struct{})

	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := c.Get(context.Background(), "k", func(context.Context) (*Result, error) {
			close(started)
			<-release
			return stubResult(), nil
		})
		if err != nil {
			t.Errorf("get: %v", err)
		}
	}()

	<-started
	st := c.stats()
	if st.Entries != 0 {
		t.Errorf("Entries = %d during flight, want 0 (in-flight slots must not count)", st.Entries)
	}
	if st.InFlight != 1 {
		t.Errorf("InFlight = %d during flight, want 1", st.InFlight)
	}

	close(release)
	<-done
	st = c.stats()
	if st.Entries != 1 || st.InFlight != 0 {
		t.Errorf("after completion Entries=%d InFlight=%d, want 1, 0", st.Entries, st.InFlight)
	}
}

// TestCacheFailedFlightStaysTruthful is the regression test for the
// ordering bug where a failed flight closed done before the entry was
// deleted, letting a racing caller count a "hit" against a result that was
// never retained. Errors must never be cached, every retry must be a miss,
// and Hits must stay zero until a flight actually succeeds.
func TestCacheFailedFlightStaysTruthful(t *testing.T) {
	c := newAnalyzeCache()
	boom := errors.New("pipeline exploded")
	calls := 0

	for i := 0; i < 2; i++ {
		_, err := c.Get(context.Background(), "k", func(context.Context) (*Result, error) {
			calls++
			return nil, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("attempt %d: err = %v, want %v", i, err, boom)
		}
	}
	if calls != 2 {
		t.Fatalf("fn ran %d times, want 2 (errors must not be cached)", calls)
	}
	st := c.stats()
	if st.Hits != 0 || st.Misses != 2 || st.Entries != 0 || st.InFlight != 0 {
		t.Fatalf("after failures: %+v, want 0 hits, 2 misses, 0 entries, 0 in flight", st)
	}

	// A succeeding retry is retained and only then produces hits.
	if _, err := c.Get(context.Background(), "k", func(context.Context) (*Result, error) {
		return stubResult(), nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(context.Background(), "k", nil); err != nil {
		t.Fatal(err)
	}
	st = c.stats()
	if st.Hits != 1 || st.Misses != 3 || st.Entries != 1 {
		t.Fatalf("after recovery: %+v, want 1 hit, 3 misses, 1 entry", st)
	}
}

// TestCacheLRUBound sweeps more distinct keys than the cap and checks the
// bound holds at every step, evictions are counted, and recency decides
// the victims.
func TestCacheLRUBound(t *testing.T) {
	c := newAnalyzeCache()
	c.SetCap(3)

	put := func(key string) {
		t.Helper()
		if _, err := c.Get(context.Background(), key, func(context.Context) (*Result, error) {
			return stubResult(), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		put(fmt.Sprintf("k%d", i))
		if st := c.stats(); st.Entries > 3 {
			t.Fatalf("after %d inserts: Entries = %d exceeds cap 3", i+1, st.Entries)
		}
	}
	st := c.stats()
	if st.Entries != 3 || st.Evictions != 7 {
		t.Fatalf("stats %+v, want 3 entries, 7 evictions", st)
	}

	// k7..k9 survive; touching k7 makes k8 the LRU victim of the next insert.
	hitsBefore := st.Hits
	put("k7")
	if st := c.stats(); st.Hits != hitsBefore+1 {
		t.Fatalf("re-get of retained k7 was not a hit: %+v", st)
	}
	put("k10")
	missesBefore := c.stats().Misses
	put("k8") // evicted above: must recompute
	if st := c.stats(); st.Misses != missesBefore+1 {
		t.Fatalf("get of evicted k8 was not a miss: %+v", st)
	}

	// Lowering the cap evicts immediately; 0 removes the bound.
	if prev := c.SetCap(1); prev != 3 {
		t.Fatalf("setCap returned prev %d, want 3", prev)
	}
	if st := c.stats(); st.Entries != 1 || st.CapEntries != 1 {
		t.Fatalf("after cap=1: %+v", st)
	}
	c.SetCap(0)
	put("k11")
	put("k12")
	if st := c.stats(); st.Entries != 3 {
		t.Fatalf("unbounded again, want 3 entries: %+v", st)
	}
}

// TestCacheCostAccounting checks CostBytes tracks retention: it grows with
// inserts and returns to zero on invalidation.
func TestCacheCostAccounting(t *testing.T) {
	c := newAnalyzeCache()
	for i := 0; i < 3; i++ {
		if _, err := c.Get(context.Background(), fmt.Sprintf("k%d", i), func(context.Context) (*Result, error) {
			return stubResult(), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	st := c.stats()
	if want := 3 * resultCost(stubResult()); st.CostBytes != want {
		t.Fatalf("CostBytes = %d, want %d", st.CostBytes, want)
	}
	c.invalidate()
	st = c.stats()
	if st.CostBytes != 0 || st.Entries != 0 || st.Invalidations != 1 {
		t.Fatalf("after invalidate: %+v", st)
	}
}

// TestCacheKeyCanonical: every analysis option and every machine field
// reaches the key, worker counts do not, and a hand-built machine keys by
// value, L3 included, not by pointer.
func TestCacheKeyCanonical(t *testing.T) {
	base := fast().withDefaults()
	key := cacheKey("spec.gzip", base)

	same := base
	same.Parallelism, same.TraceWorkers = 7, 3
	l3 := *base.Machine.L3
	same.Machine.L3 = &l3
	if got := cacheKey("spec.gzip", same); got != key {
		t.Errorf("worker counts or an equal L3 copy changed the key:\n%s\n%s", got, key)
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
	sched.Add("endless", r)
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
		_, err := AnalyzeCtx(ctx, "test.endless", Options{Intervals: 1 << 20, TraceWorkers: 1})
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
	waitFor(t, func() bool { return AnalysisCacheStats().InFlight == 0 })
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}
