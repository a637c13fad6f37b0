package par

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestForCtxFirstError verifies the pool mirrors a serial loop's error
// semantics: the lowest-index failure is returned, later work is cancelled.
func TestForCtxFirstError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		ran := map[int]bool{}
		err := ForCtx(context.Background(), workers, 100, func(_ context.Context, i int) error {
			mu.Lock()
			ran[i] = true
			mu.Unlock()
			if i == 7 || i == 9 {
				return fmt.Errorf("boom %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "boom 7" {
			t.Fatalf("workers=%d: err = %v, want boom 7", workers, err)
		}
		mu.Lock()
		for i := 0; i <= 7; i++ {
			if !ran[i] {
				t.Fatalf("workers=%d: index %d below the failure never ran", workers, i)
			}
		}
		mu.Unlock()
	}
	if err := ForCtx(context.Background(), 4, 0, func(_ context.Context, i int) error { return errors.New("no") }); err != nil {
		t.Fatalf("empty ForCtx returned %v", err)
	}
}

// TestForCtxMatchesSerialLoop is the differential check: over random sizes,
// worker counts, failure sets and call durations, ForCtx returns the error
// the plain serial loop returns, and every index at or below the lowest
// failure runs exactly once on a context that is still live when the call
// returns.
func TestForCtxMatchesSerialLoop(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 1))
	for trial := 0; trial < 300; trial++ {
		n := rng.IntN(40)
		workers := 1 + rng.IntN(8)
		fails := make([]bool, n)
		delay := make([]time.Duration, n)
		lowest := n
		for i := range fails {
			fails[i] = rng.IntN(6) == 0
			if fails[i] && lowest == n {
				lowest = i
			}
			delay[i] = time.Duration(rng.IntN(200)) * time.Microsecond
		}
		var parent context.Context
		if trial%4 != 0 {
			parent = context.Background()
		}

		var want error
		for i := 0; i < n; i++ {
			if fails[i] {
				want = fmt.Errorf("fail %d", i)
				break
			}
		}

		runs := make([]atomic.Int32, n)
		live := make([]atomic.Bool, n)
		got := ForCtx(parent, workers, n, func(ctx context.Context, i int) error {
			runs[i].Add(1)
			time.Sleep(delay[i])
			live[i].Store(ctx == nil || ctx.Err() == nil)
			if (ctx == nil) != (parent == nil) {
				t.Errorf("index %d: ctx nil = %v, parent nil = %v", i, ctx == nil, parent == nil)
			}
			if fails[i] {
				return fmt.Errorf("fail %d", i)
			}
			return nil
		})

		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d (n=%d workers=%d): err = %v, serial loop = %v", trial, n, workers, got, want)
		}
		for i := range runs {
			if r := runs[i].Load(); r > 1 || (i <= lowest && r != 1) {
				t.Fatalf("trial %d (n=%d workers=%d): index %d ran %d times (lowest failure %d)",
					trial, n, workers, i, r, lowest)
			}
			if i <= lowest && !live[i].Load() {
				t.Fatalf("trial %d (n=%d workers=%d): index %d at or below the lowest failure %d saw a cancelled ctx",
					trial, n, workers, i, lowest)
			}
		}
	}
}

// TestForCtxParentCancelled: a dead parent stops the loop before any call,
// with the parent's error, like the serial loop's first check.
func TestForCtxParentCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var calls atomic.Int32
		err := ForCtx(ctx, workers, 50, func(context.Context, int) error {
			calls.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) || calls.Load() != 0 {
			t.Fatalf("workers=%d: err = %v after %d calls, want context.Canceled after none", workers, err, calls.Load())
		}
	}
}

// TestForRunsEveryIndexOnce checks For's contract: each index runs once,
// on a worker id in range, and each worker sees its indices ascending.
func TestForRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		const n = 200
		runs := make([]atomic.Int32, n)
		last := make([]int, max(workers, 1))
		for w := range last {
			last[w] = -1
		}
		For(workers, n, func(w, i int) {
			if w < 0 || w >= max(workers, 1) {
				t.Errorf("workers=%d: worker id %d out of range", workers, w)
				return
			}
			if i <= last[w] {
				t.Errorf("workers=%d: worker %d claimed %d after %d", workers, w, i, last[w])
			}
			last[w] = i
			runs[i].Add(1)
		})
		for i := range runs {
			if r := runs[i].Load(); r != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, r)
			}
		}
	}
}

// TestNoAllocationPerIndex: the pool's allocations do not grow with n, on
// the plain form and on the nil-context form.
func TestNoAllocationPerIndex(t *testing.T) {
	noop := func(w, i int) {}
	noopErr := func(context.Context, int) error { return nil }
	for _, workers := range []int{1, 2} {
		small := testing.AllocsPerRun(20, func() { For(workers, 8, noop) })
		large := testing.AllocsPerRun(20, func() { For(workers, 4096, noop) })
		if large > small {
			t.Errorf("For workers=%d: %.0f allocs at n=4096, %.0f at n=8", workers, large, small)
		}
		small = testing.AllocsPerRun(20, func() { ForCtx(nil, workers, 8, noopErr) })
		large = testing.AllocsPerRun(20, func() { ForCtx(nil, workers, 4096, noopErr) })
		if large > small {
			t.Errorf("ForCtx(nil) workers=%d: %.0f allocs at n=4096, %.0f at n=8", workers, large, small)
		}
	}
}

// TestShareMatchesBothSplitRules: Share replaces the fan-out rule (a
// budget divided among n analyses) and the cross-validation rule (folds
// fan out first, the remainder goes to each fold); for every budget >= 1
// all three agree.
func TestShareMatchesBothSplitRules(t *testing.T) {
	fanOutRule := func(workers, n int) int {
		if n < 1 {
			n = 1
		}
		if n > workers {
			return 1
		}
		return workers / n
	}
	foldRule := func(budget, folds int) int {
		foldWorkers := min(budget, folds)
		if foldWorkers > 1 {
			return budget / foldWorkers
		}
		return budget
	}
	for workers := 1; workers <= 64; workers++ {
		for n := 0; n <= 64; n++ {
			got := Share(workers, n)
			if want := fanOutRule(workers, n); got != want {
				t.Fatalf("Share(%d, %d) = %d, fan-out rule says %d", workers, n, got, want)
			}
			if n >= 1 {
				if want := foldRule(workers, n); got != want {
					t.Fatalf("Share(%d, %d) = %d, fold rule says %d", workers, n, got, want)
				}
			}
		}
	}
}
