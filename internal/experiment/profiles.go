package experiment

import (
	"context"

	"repro/internal/profiler"
	"repro/internal/profstore"
)

// profiles is the process-wide profile store that sits in front of
// profiler.Collect, one tier below the Analyze memo cache: where the
// Analyze cache keys on the *full* analysis configuration (intervals,
// leaves, folds, thread separation, ...), the profile store keys only on
// what the simulation itself is a function of. Two analyses that differ
// only in post-collection settings — e.g. the whole-system and
// thread-separated variants of one run — share a single stored collection.
//
// By default the store is memory-only; SetProfileDir attaches the
// persistent tier shared between processes.
var profiles = profstore.New()

// SetProfileDir attaches dir as the profile store's on-disk tier,
// creating it if needed ("" detaches it).
func SetProfileDir(dir string) error { return profiles.SetDir(dir) }

// SetProfileLogf routes the profile store's warnings (corrupt entries,
// write failures) to f; nil silences them.
func SetProfileLogf(f func(format string, args ...any)) { profiles.SetLogf(f) }

// SetProfileMemCap bounds the profile store's in-memory tier to n entries
// (0 = unbounded) and returns the previous cap.
func SetProfileMemCap(n int) int { return profiles.SetMemCap(n) }

// ProfileStoreStats returns a snapshot of the profile store's counters.
func ProfileStoreStats() profstore.Stats { return profiles.Stats() }

// Collect returns the collection Analyze(name, opt) would analyze, read
// through the profile store's memory and disk tiers. Concurrent callers do
// not share one result: each gets its own, equal to the others in every
// field the store's codec keeps (a memory-tier hit decodes the stored
// bytes), and must treat it as immutable.
func Collect(ctx context.Context, name string, opt Options) (*profiler.CollectResult, error) {
	return collectCached(ctx, name, opt.withDefaults(), false)
}

// collectCached runs (or reads back) the collection for name under opt,
// through the profile store. bbv selects the BBV-bearing variant used by
// CompareBBV; it participates in the store key because it changes the
// entry's contents. opt must already carry defaults.
func collectCached(ctx context.Context, name string, opt Options, bbv bool) (*profiler.CollectResult, error) {
	key := profstore.Key{
		Workload:       name,
		Machine:        opt.Machine,
		Seed:           opt.Seed,
		Intervals:      opt.Intervals,
		PeriodOverride: opt.PeriodOverride,
	}
	if bbv {
		key.BuildBBV = true
		key.BBVIntervalInsts = opt.IntervalInsts
	}
	return profiles.Get(ctx, key, func(fctx context.Context) (*profiler.CollectResult, error) {
		copt := profiler.CollectOptions{
			Ctx:            fctx,
			Machine:        opt.Machine,
			Seed:           opt.Seed,
			Intervals:      opt.Intervals,
			PeriodOverride: opt.PeriodOverride,
			// Lookahead trace generation: output-invariant, so not in key.
			TraceWorkers: Workers(opt.Parallelism),
		}
		if bbv {
			copt.BuildBBV = true
			copt.BBVIntervalInsts = opt.IntervalInsts
		}
		return profiler.CollectByName(name, copt)
	})
}
