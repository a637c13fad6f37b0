package flight

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// constant returns a flight function that yields v at once.
func constant(v int) func(context.Context) (int, error) {
	return func(context.Context) (int, error) { return v, nil }
}

// blocking returns a flight function that signals started, then waits for
// release and yields v (or the flight's cancellation, if it came first).
func blocking(v int, started, release chan struct{}) func(context.Context) (int, error) {
	return func(ctx context.Context) (int, error) {
		close(started)
		select {
		case <-release:
			return v, nil
		case <-ctx.Done():
			return 0, ctx.Err()
		}
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

// TestSharedFlight: concurrent Gets of one key run fn once and all see its
// value; the first starts the flight and the rest are counted as shared.
func TestSharedFlight(t *testing.T) {
	c := New[int](nil)
	started, release := make(chan struct{}), make(chan struct{})
	const callers = 8
	got := make([]int, callers)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		got[0], _ = c.Get(context.Background(), "k", blocking(42, started, release))
	}()
	<-started
	for i := 1; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.Get(context.Background(), "k", func(context.Context) (int, error) {
				t.Error("second flight started for a running key")
				return 0, nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			got[i] = v
		}(i)
	}
	waitFor(t, func() bool { return c.Stats().Shared == callers-1 })
	close(release)
	wg.Wait()
	for i, v := range got {
		if v != 42 {
			t.Fatalf("caller %d got %d, want 42", i, v)
		}
	}
	if st := c.Stats(); st.Starts != 1 || st.Entries != 1 || st.InFlight != 0 {
		t.Fatalf("stats %+v, want 1 start, 1 entry, 0 in flight", st)
	}
	if v, _ := c.Get(context.Background(), "k", nil); v != 42 || c.Stats().Hits != 1 {
		t.Fatalf("retained value not a hit: v=%d stats %+v", v, c.Stats())
	}
}

// TestInFlightNotCountedAsEntry: a running flight is reported by InFlight,
// not Entries, and moves over only once it completes and is retained.
func TestInFlightNotCountedAsEntry(t *testing.T) {
	c := New[int](nil)
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Get(context.Background(), "k", blocking(1, started, release))
	}()
	<-started
	if st := c.Stats(); st.Entries != 0 || st.InFlight != 1 {
		t.Fatalf("during flight %+v, want 0 entries, 1 in flight", st)
	}
	close(release)
	<-done
	if st := c.Stats(); st.Entries != 1 || st.InFlight != 0 {
		t.Fatalf("after flight %+v, want 1 entry, 0 in flight", st)
	}
}

// TestClearKeepsInFlightCounted is the regression test for InFlight
// reading 0 after a Clear while a flight still runs: the gauge counts
// flights from start to finish, so Clear cannot hide one. The cleared
// flight still serves its waiter but is not retained.
func TestClearKeepsInFlightCounted(t *testing.T) {
	c := New[int](nil)
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		if v, err := c.Get(context.Background(), "k", blocking(7, started, release)); v != 7 || err != nil {
			t.Errorf("waiter of a cleared flight: v=%d err=%v, want 7, nil", v, err)
		}
	}()
	<-started
	c.Clear()
	if st := c.Stats(); st.InFlight != 1 {
		t.Fatalf("InFlight = %d after Clear with a flight running, want 1", st.InFlight)
	}
	close(release)
	<-done
	if st := c.Stats(); st.InFlight != 0 || st.Entries != 0 {
		t.Fatalf("after the cleared flight finished: %+v, want 0 in flight, 0 entries", st)
	}
}

// TestFailedFlightNotRetained: errors reach the caller but are never
// cached; every retry starts a flight and hits count only retained values.
func TestFailedFlightNotRetained(t *testing.T) {
	c := New[int](nil)
	boom := errors.New("boom")
	for i := 0; i < 2; i++ {
		if _, err := c.Get(context.Background(), "k", func(context.Context) (int, error) {
			return 0, boom
		}); !errors.Is(err, boom) {
			t.Fatalf("attempt %d: err = %v, want boom", i, err)
		}
		if c.Available("k", false) {
			t.Fatalf("attempt %d: failed flight still available", i)
		}
	}
	if st := c.Stats(); st.Hits != 0 || st.Starts != 2 || st.Entries != 0 || st.InFlight != 0 {
		t.Fatalf("after failures %+v, want 0 hits, 2 starts, 0 entries, 0 in flight", st)
	}
	if v, err := c.Get(context.Background(), "k", constant(3)); v != 3 || err != nil {
		t.Fatalf("retry: v=%d err=%v", v, err)
	}
	if _, err := c.Get(context.Background(), "k", nil); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 1 || st.Starts != 3 || st.Entries != 1 {
		t.Fatalf("after recovery %+v, want 1 hit, 3 starts, 1 entry", st)
	}
}

// TestWaiterDetachKeepsFlightAlive: one of two waiters giving up detaches
// alone; the flight's context stays live and the survivor gets the value.
func TestWaiterDetachKeepsFlightAlive(t *testing.T) {
	c := New[int](nil)
	started, release := make(chan struct{}), make(chan struct{})
	var flightCtx context.Context
	survivor := make(chan int, 1)
	go func() {
		v, _ := c.Get(context.Background(), "k", func(ctx context.Context) (int, error) {
			flightCtx = ctx
			close(started)
			<-release
			return 5, ctx.Err()
		})
		survivor <- v
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	gone := make(chan error, 1)
	go func() {
		_, err := c.Get(ctx, "k", nil)
		gone <- err
	}()
	waitFor(t, func() bool { return c.Stats().Shared == 1 })
	cancel()
	if err := <-gone; !errors.Is(err, context.Canceled) {
		t.Fatalf("impatient waiter: err = %v, want context.Canceled", err)
	}
	if flightCtx.Err() != nil {
		t.Fatal("flight context cancelled although a waiter remains")
	}
	close(release)
	if v := <-survivor; v != 5 {
		t.Fatalf("survivor got %d, want 5", v)
	}
}

// TestLastWaiterAbortsFlight: when the only waiter leaves, the flight's
// context is cancelled, the failure is not retained, and the key computes
// afresh on the next Get.
func TestLastWaiterAbortsFlight(t *testing.T) {
	c := New[int](nil)
	started, release := make(chan struct{}), make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	gone := make(chan error, 1)
	go func() {
		_, err := c.Get(ctx, "k", blocking(1, started, release))
		gone <- err
	}()
	<-started
	cancel()
	if err := <-gone; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	waitFor(t, func() bool { return c.Stats().InFlight == 0 })
	if v, err := c.Get(context.Background(), "k", constant(2)); v != 2 || err != nil {
		t.Fatalf("fresh flight after abort: v=%d err=%v", v, err)
	}
	if st := c.Stats(); st.Hits != 0 || st.Starts != 2 || st.Entries != 1 {
		t.Fatalf("stats %+v, want 0 hits, 2 starts, 1 entry", st)
	}
}

// TestDoomedSlotReplaced: a flight abandoned by every waiter but still
// unwinding is neither joined nor reported available; the next Get starts
// a fresh flight, and the doomed one finishing later leaves the fresh
// slot alone.
func TestDoomedSlotReplaced(t *testing.T) {
	c := New[int](nil)
	started, unwind, unwound := make(chan struct{}), make(chan struct{}), make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	gone := make(chan struct{})
	go func() {
		defer close(gone)
		c.Get(ctx, "k", func(fctx context.Context) (int, error) {
			defer close(unwound)
			close(started)
			<-fctx.Done()
			<-unwind // a slow pipeline: cancelled, not yet returned
			return 0, fctx.Err()
		})
	}()
	<-started
	cancel()
	<-gone

	if c.Available("k", false) {
		t.Fatal("doomed flight reported as joinable")
	}
	// Bounded, so joining the doomed flight fails instead of hanging.
	ctx, cancel = context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if v, err := c.Get(ctx, "k", constant(9)); v != 9 || err != nil {
		t.Fatalf("Get over a doomed slot: v=%d err=%v, want 9, nil", v, err)
	}
	close(unwind)
	<-unwound
	waitFor(t, func() bool { return c.Stats().InFlight == 0 })
	if v, err := c.Get(context.Background(), "k", nil); v != 9 || err != nil {
		t.Fatalf("doomed flight's finish disturbed the fresh slot: v=%d err=%v", v, err)
	}
	if st := c.Stats(); st.Starts != 2 || st.Shared != 0 || st.Hits != 1 {
		t.Fatalf("stats %+v, want 2 starts, 0 shared, 1 hit", st)
	}
}

// TestLRUBoundAndCost sweeps more keys than the cap: the bound holds at
// every step, recency picks the victims, and Cost follows retention.
func TestLRUBoundAndCost(t *testing.T) {
	c := New(func(v int) int64 { return int64(v) })
	put := func(k int) {
		t.Helper()
		if _, err := c.Get(context.Background(), fmt.Sprint(k), constant(k)); err != nil {
			t.Fatal(err)
		}
	}
	if prev := c.SetCap(3); prev != 0 {
		t.Fatalf("SetCap returned prev %d, want 0", prev)
	}
	for k := 1; k <= 10; k++ {
		put(k)
		if st := c.Stats(); st.Entries > 3 {
			t.Fatalf("after %d inserts Entries = %d exceeds cap 3", k, st.Entries)
		}
	}
	if st := c.Stats(); st.Entries != 3 || st.Evictions != 7 || st.Cost != 8+9+10 {
		t.Fatalf("stats %+v, want 3 entries, 7 evictions, cost 27", st)
	}

	put(8) // touch 8: 9 becomes the least recently used
	put(11)
	if c.Available("9", true) || !c.Available("8", true) {
		t.Fatal("eviction ignored recency")
	}
	if st := c.Stats(); st.Cost != 8+10+11 {
		t.Fatalf("Cost = %d, want 29", st.Cost)
	}

	if prev := c.SetCap(1); prev != 3 {
		t.Fatalf("SetCap returned prev %d, want 3", prev)
	}
	if st := c.Stats(); st.Entries != 1 || st.Cap != 1 || st.Cost != 11 {
		t.Fatalf("after cap 1: %+v, want 1 entry, cap 1, cost 11", st)
	}
	c.SetCap(0)
	put(12)
	put(13)
	if st := c.Stats(); st.Entries != 3 {
		t.Fatalf("unbounded again: %+v, want 3 entries", st)
	}
	c.Clear()
	if st := c.Stats(); st.Entries != 0 || st.Cost != 0 || st.Starts != 13 || st.Hits != 1 {
		t.Fatalf("after Clear: %+v, want 0 entries, cost 0, counters kept", st)
	}
}

// TestAvailable probes each slot state.
func TestAvailable(t *testing.T) {
	c := New[int](nil)
	if c.Available("k", false) {
		t.Fatal("absent key reported available")
	}
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Get(context.Background(), "k", blocking(1, started, release))
	}()
	<-started
	if !c.Available("k", false) || c.Available("k", true) {
		t.Fatal("running flight: want joinable but not completed")
	}
	close(release)
	<-done
	if !c.Available("k", true) {
		t.Fatal("retained value not reported completed")
	}
}

// TestPreCancelledContext: a dead context never reaches the cache.
func TestPreCancelledContext(t *testing.T) {
	c := New[int](nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Get(ctx, "k", func(context.Context) (int, error) {
		t.Fatal("fn ran despite a dead context")
		return 0, nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("dead context touched the cache: %+v", st)
	}
}

// TestConcurrentChurn drives Gets, cancellations, cap changes and Clears
// from many goroutines at once (run it under -race): every value returned
// belongs to its key, and the cache settles with nothing in flight and
// the cap respected.
func TestConcurrentChurn(t *testing.T) {
	c := New(func(v int) int64 { return 1 })
	c.SetCap(4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (g*7 + i) % 10
				ctx, cancel := context.WithCancel(context.Background())
				if i%5 == 0 {
					time.AfterFunc(time.Duration(i%3)*time.Microsecond, cancel)
				}
				v, err := c.Get(ctx, fmt.Sprint(k), func(fctx context.Context) (int, error) {
					select {
					case <-time.After(time.Duration(k) * time.Microsecond):
						return k, nil
					case <-fctx.Done():
						return 0, fctx.Err()
					}
				})
				cancel()
				if err == nil && v != k {
					t.Errorf("key %d returned %d", k, v)
				}
				switch i % 50 {
				case 17:
					c.Clear()
				case 33:
					c.SetCap(2 + g%3)
				}
			}
		}(g)
	}
	wg.Wait()
	waitFor(t, func() bool { return c.Stats().InFlight == 0 })
	st := c.Stats()
	if st.Cap > 0 && st.Entries > st.Cap {
		t.Fatalf("Entries %d exceed cap %d", st.Entries, st.Cap)
	}
	if st.Cost != int64(st.Entries) {
		t.Fatalf("Cost %d disagrees with %d unit-cost entries", st.Cost, st.Entries)
	}
}
