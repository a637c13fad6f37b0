package experiment

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/par"
)

// Workers resolves an Options.Parallelism value: zero or negative means one
// worker per CPU, anything else is used as-is.
func Workers(parallelism int) int {
	if parallelism <= 0 {
		return runtime.NumCPU()
	}
	return parallelism
}

// fanOut runs fn for every i in [0, n) on opt's worker budget and returns
// the results in index order. Each call receives inner, which is opt with
// Parallelism cut to the call's share of the budget (par.Share), so the
// fan-out as a whole stays within the budget. ctx cancels the fan-out, and
// the error is the one a serial loop over the same calls would return
// (par.ForCtx).
func fanOut[T any](ctx context.Context, opt Options, n int, fn func(ctx context.Context, i int, inner Options) (T, error)) ([]T, error) {
	workers := Workers(opt.Parallelism)
	inner := opt
	inner.Parallelism = par.Share(workers, n)
	out := make([]T, n)
	err := par.ForCtx(ctx, workers, n, func(ctx context.Context, i int) error {
		v, err := fn(ctx, i, inner)
		out[i] = v
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// progressGate serializes completion callbacks so they fire in index order
// even when the underlying work completes out of order: worker i reports
// done(i), and emit runs for every prefix index whose work has finished.
type progressGate struct {
	mu    sync.Mutex
	ready []bool
	next  int
	emit  func(i int)
}

func newProgressGate(n int, emit func(i int)) *progressGate {
	return &progressGate{ready: make([]bool, n), emit: emit}
}

// done marks index i complete and flushes the contiguous ready prefix. emit
// runs under the gate's lock, so callbacks never interleave.
func (g *progressGate) done(i int) {
	if g == nil || g.emit == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.ready[i] = true
	for g.next < len(g.ready) && g.ready[g.next] {
		g.emit(g.next)
		g.next++
	}
}
