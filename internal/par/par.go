// Package par is the one worker pool under every parallel loop in the
// analysis stack: the table and figure fan-outs, the cross-validation
// folds and the k-means grid sweep.
//
// It fixes three rules so no caller has to:
//
//   - Claim order: indices are claimed in ascending order, one at a time,
//     by at most `workers` goroutines. Callers write results into their own
//     slot of a pre-sized slice, so output order never depends on
//     completion order.
//   - Budget split: Share divides a worker budget among concurrent tasks,
//     so nested loops (a fan-out of analyses, each cross-validating on its
//     share) stay within the budget as a whole.
//   - Error rule: ForCtx returns exactly the error a serial loop over the
//     same work would return. Only calls above the lowest failing index are
//     cancelled; calls below it run to completion on the caller's context.
package par

import (
	"context"
	"sync"
	"sync/atomic"
)

// For runs fn(w, i) for every i in [0, n) on at most workers goroutines,
// claiming indices in ascending order; w in [0, workers) names the
// goroutine running the call, so a caller can keep per-worker scratch.
// With workers <= 1 it is a plain loop on the calling goroutine (w = 0).
// For allocates nothing per index.
func For(workers, n int, fn func(w, i int)) {
	if workers = min(workers, n); workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var pool struct { // one allocation for the counter and the barrier
		next atomic.Int64
		wg   sync.WaitGroup
	}
	pool.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer pool.wg.Done()
			for i := int(pool.next.Add(1)) - 1; i < n; i = int(pool.next.Add(1)) - 1 {
				fn(w, i)
			}
		}()
	}
	pool.wg.Wait()
}

// ForCtx is For for fallible, cancellable work. It returns the error a
// serial loop would: the loop below, run over the same calls.
//
//	for i := 0; i < n; i++ {
//		if err := ctx.Err(); err != nil {
//			return err
//		}
//		if err := fn(ctx, i); err != nil {
//			return err
//		}
//	}
//
// Once index j fails, every index above j that has not started is skipped
// and every call above j that is running sees its ctx cancelled. Calls
// below j are never cancelled by the pool: they run to completion, and if
// one of them fails too, its error wins. Each worker runs on its own
// context derived from ctx, so cancelling one worker's call leaves the
// others alone. A nil ctx never cancels, and fn then receives nil.
func ForCtx(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) error {
	if workers = min(workers, n); workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctxErr(ctx); err != nil {
				return err
			}
			if err := fn(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}

	type slot struct {
		ctx    context.Context
		cancel context.CancelFunc
		cur    int // index this worker is running
	}
	slots := make([]slot, workers)
	if ctx != nil {
		for w := range slots {
			slots[w].ctx, slots[w].cancel = context.WithCancel(ctx)
			defer slots[w].cancel()
		}
	}
	var (
		mu     sync.Mutex
		failed = n // lowest failing index so far; n while none has failed
		first  error
	)
	For(workers, n, func(w, i int) {
		mu.Lock()
		if i > failed {
			mu.Unlock()
			return
		}
		slots[w].cur = i
		mu.Unlock()

		err := ctxErr(ctx)
		if err == nil {
			err = fn(slots[w].ctx, i)
		}
		if err == nil {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if i < failed {
			failed, first = i, err
			for v := range slots {
				if slots[v].cur > i && slots[v].cancel != nil {
					slots[v].cancel()
				}
			}
		}
	})
	return first
}

func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// Share is the single rule for splitting a worker budget: it returns how
// many workers each of n concurrently running tasks gets when `workers`
// are shared among them. The tasks fan out first (at most min(workers, n)
// run at once) and each gets an equal whole share of the budget; when
// tasks outnumber workers, each runs on one.
func Share(workers, n int) int {
	if n = max(n, 1); n > workers {
		return 1
	}
	return workers / n
}
