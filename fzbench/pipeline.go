package main

import (
	"context"
	"fmt"

	"repro/internal/cpu"
	"repro/internal/eipv"
	"repro/internal/experiment"
	"repro/internal/kmeans"
	"repro/internal/profiler"
	"repro/internal/profstore"
	"repro/internal/rtree"
	"repro/internal/workload"
)

// The analysis options every workload uses: the paper's defaults
// (experiment.Options' zero value) with an explicit seed.
const (
	intervals = experiment.DefaultIntervals
	warmup    = experiment.DefaultWarmup
	maxLeaves = experiment.DefaultMaxLeaves
	folds     = experiment.DefaultFolds
)

// analysis is what the traced pipeline produces for one workload.
type analysis struct {
	set   *eipv.Set
	mtx   *rtree.Matrix
	km    *kmeans.Matrix
	cv    rtree.CVResult
	insts uint64 // instructions the collection retired (0 when read from a store)
}

// tracedAnalyze is experiment's uncached analysis pipeline recomposed from
// the layers' public calls, with a span around each: collect (from the
// profile store when store is non-nil, else by simulating), cut EIPVs,
// index, cross-validate, and share the index with the clustering kernels.
// Callers assert that its CVResult equals AnalyzeCtx's, so this copy
// cannot drift from the real pipeline unnoticed.
func tracedAnalyze(ctx context.Context, tr *tracer, parent, op int, name string, opt experiment.Options, store *profstore.Store) (*analysis, error) {
	collect := func(ctx context.Context) (*profiler.CollectResult, error) {
		return timed(tr, "profiler.collect", parent, op, func() (*profiler.CollectResult, error) {
			return profiler.CollectByName(name, profiler.CollectOptions{
				Ctx:          ctx,
				Machine:      cpu.Itanium2(),
				Seed:         opt.Seed,
				Intervals:    intervals,
				TraceWorkers: experiment.Workers(opt.Parallelism),
			})
		})
	}
	var col *profiler.CollectResult
	var err error
	a := &analysis{}
	if store == nil {
		col, err = collect(ctx)
		if col != nil {
			a.insts = col.Counters.Insts
		}
	} else {
		col, err = timed(tr, "profstore.disk_get", parent, op, func() (*profiler.CollectResult, error) {
			key := profstore.Key{Workload: name, Machine: cpu.Itanium2(), Seed: opt.Seed, Intervals: intervals}
			return store.Get(ctx, key, collect)
		})
	}
	if err != nil {
		return nil, err
	}

	a.set, _ = timed(tr, "eipv.build", parent, op, func() (*eipv.Set, error) {
		return eipv.Build(col.Profile, workload.IntervalInsts).SkipWarmup(warmup), nil
	})
	if len(a.set.Vectors) < folds*2 {
		return nil, fmt.Errorf("%s produced only %d steady-state EIPVs", name, len(a.set.Vectors))
	}
	a.mtx, _ = timed(tr, "rtree.index", parent, op, func() (*rtree.Matrix, error) {
		return rtree.IndexDataset(experiment.Dataset(a.set)), nil
	})
	treeOpt := rtree.Options{MaxLeaves: maxLeaves, MinLeaf: 2, Parallelism: experiment.Workers(opt.Parallelism)}
	a.cv, err = timed(tr, "rtree.cv", parent, op, func() (rtree.CVResult, error) {
		return a.mtx.CrossValidateCtx(ctx, treeOpt, folds, opt.Seed)
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	a.km, _ = timed(tr, "kmeans.fromcsr", parent, op, func() (*kmeans.Matrix, error) {
		rs, rf, rc := a.mtx.RowCSR()
		return kmeans.FromCSR(a.mtx.EIPs(), rs, rf, rc), nil
	})
	return a, nil
}
