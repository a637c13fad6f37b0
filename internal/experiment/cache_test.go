package experiment

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
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

// TestCacheWaiterDetachKeepsFlightAlive: with two waiters on one flight,
// one waiter timing out must detach alone — the survivor still gets the
// result and the flight's context is never cancelled.
func TestCacheWaiterDetachKeepsFlightAlive(t *testing.T) {
	c := newAnalyzeCache()
	started := make(chan struct{})
	release := make(chan struct{})
	var flightCtx context.Context

	var wg sync.WaitGroup
	wg.Add(1)
	var survivorRes *Result
	var survivorErr error
	go func() {
		defer wg.Done()
		survivorRes, survivorErr = c.Get(context.Background(), "k", func(ctx context.Context) (*Result, error) {
			flightCtx = ctx
			close(started)
			<-release
			return stubResult(), ctx.Err()
		})
	}()
	<-started

	// Second caller joins the flight, then gives up.
	ctx, cancel := context.WithCancel(context.Background())
	gone := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(gone)
		if _, err := c.Get(ctx, "k", nil); !errors.Is(err, context.Canceled) {
			t.Errorf("impatient waiter: err = %v, want context.Canceled", err)
		}
	}()
	// Wait until the second caller has joined before cancelling it, so the
	// detach path (not the pre-check) is exercised.
	waitFor(t, func() bool { return c.stats().Shared == 1 })
	cancel()
	<-gone

	if flightCtx.Err() != nil {
		t.Fatal("flight context cancelled even though a waiter remains")
	}
	close(release)
	wg.Wait()
	if survivorErr != nil || survivorRes == nil {
		t.Fatalf("surviving waiter: res=%v err=%v", survivorRes, survivorErr)
	}
	st := c.stats()
	if st.Shared != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v, want 1 shared, 1 entry", st)
	}
}

// TestCacheLastWaiterCancelAbortsFlight: when every waiter detaches, the
// flight's context is cancelled, the failed slot is not retained, and the
// next get starts a fresh flight.
func TestCacheLastWaiterCancelAbortsFlight(t *testing.T) {
	c := newAnalyzeCache()
	started := make(chan struct{})
	aborted := make(chan struct{})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := c.Get(ctx, "k", func(ctx context.Context) (*Result, error) {
			close(started)
			<-ctx.Done() // cooperative pipeline: observes the abort
			close(aborted)
			return nil, ctx.Err()
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	}()
	<-started
	cancel()

	select {
	case <-aborted:
	case <-time.After(5 * time.Second):
		t.Fatal("flight context was not cancelled after its only waiter left")
	}
	<-done
	waitFor(t, func() bool {
		st := c.stats()
		return st.Entries == 0 && st.InFlight == 0
	})

	// The key is computable again with a fresh flight.
	res, err := c.Get(context.Background(), "k", func(context.Context) (*Result, error) {
		return stubResult(), nil
	})
	if err != nil || res == nil {
		t.Fatalf("fresh flight after abort: res=%v err=%v", res, err)
	}
	if st := c.stats(); st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("stats %+v, want 0 hits, 2 misses (abort never cached)", st)
	}
}

// TestCacheSharedFlight: concurrent callers of one key run the pipeline
// exactly once and all receive the same *Result.
func TestCacheSharedFlight(t *testing.T) {
	c := newAnalyzeCache()
	calls := 0
	gate := make(chan struct{})
	first := stubResult()

	const callers = 8
	results := make([]*Result, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := c.Get(context.Background(), "k", func(context.Context) (*Result, error) {
				calls++ // safe: only one flight can run
				<-gate
				return first, nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			results[i] = res
		}(i)
	}
	waitFor(t, func() bool {
		st := c.stats()
		return st.Misses == 1 && st.Shared == callers-1
	})
	close(gate)
	wg.Wait()

	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
	for i, res := range results {
		if res != first {
			t.Fatalf("caller %d got a different *Result", i)
		}
	}
}

// TestCachePreCancelledContext: a context that is already dead never
// touches the cache.
func TestCachePreCancelledContext(t *testing.T) {
	c := newAnalyzeCache()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Get(ctx, "k", func(context.Context) (*Result, error) {
		t.Fatal("fn ran despite dead context")
		return nil, nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := c.stats(); st.Misses != 0 && st.Hits != 0 {
		t.Fatalf("dead context touched counters: %+v", st)
	}
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
