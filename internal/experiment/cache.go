// Memoization of Analyze results. The figure and table pipelines overlap
// heavily — odb-c and sjas alone appear in Figures 2-7 and Table 2 — so a
// process-wide cache keyed by (workload, canonicalized Options) lets every
// configuration simulate exactly once. Concurrent callers of the same key
// are deduplicated singleflight-style: one flight computes, the rest wait
// for its result.
//
// The cache is a flight.Cache (see that package for the singleflight and
// LRU invariants): flights run on contexts detached from any one caller,
// failed and cancelled flights are never retained, and completed results
// live on an LRU bounded by SetAnalysisCacheCap (0, the default, keeps the
// CLI's unbounded behavior), each costed by resultCost so long-running
// services can watch retained bytes via CacheStats.
//
// Cached Results are shared between callers and must be treated as
// immutable; every consumer in this repository only reads them.
package experiment

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/cpu"
	"repro/internal/flight"
)

// cacheKey canonicalizes an options struct (already carrying defaults) into
// a stable string key. Parallelism is deliberately excluded: results are
// bit-for-bit identical at any worker count, so parallel and serial
// callers share entries. The machine config is serialized field-by-field
// (with the optional L3 dereferenced) so hand-built cpu.Configs key
// correctly, not just the named presets.
func cacheKey(name string, opt Options) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|iv=%d|wu=%d|seed=%d|ii=%d|po=%d|ts=%t|ml=%d|folds=%d",
		name, opt.Intervals, opt.Warmup, opt.Seed, opt.IntervalInsts,
		opt.PeriodOverride, opt.ThreadSeparated, opt.MaxLeaves, opt.Folds)
	writeMachine(&b, opt.Machine)
	return b.String()
}

func writeMachine(b *strings.Builder, m cpu.Config) {
	b.WriteByte('|')
	b.WriteString(m.Canonical())
}

// CacheStats is a snapshot of the Analyze cache counters.
type CacheStats struct {
	// Hits counts Analyze calls answered from a completed, retained entry.
	Hits uint64
	// Misses counts calls that had to start a fresh pipeline flight.
	Misses uint64
	// Shared counts calls that joined an in-flight computation of the
	// same key instead of duplicating it (singleflight deduplication).
	Shared uint64
	// Evictions counts completed entries dropped by the LRU entry cap.
	Evictions uint64
	// Invalidations counts InvalidateAnalysisCache calls.
	Invalidations uint64
	// Entries is the number of completed results currently retained.
	// In-flight computations are reported separately by InFlight.
	Entries int
	// InFlight is the number of pipeline computations currently running,
	// including any an invalidation has since dropped from the cache.
	InFlight int
	// CostBytes approximates the heap retained by completed entries
	// (EIPV rows, CSR arrays, the k-means Gram matrix; see resultCost).
	// It holds no profile samples: a Result keeps none, and the profile
	// store's memory tier reports its encoded collections itself
	// (profstore.Stats.MemBytes).
	CostBytes int64
	// CapEntries is the configured entry cap (0 = unbounded).
	CapEntries int
}

// analyzeCache is the Analyze cache: the flight primitive with resultCost
// as its cost function, plus the invalidation counter CacheStats reports.
type analyzeCache struct {
	*flight.Cache[*Result]
	invalidations atomic.Uint64
}

func newAnalyzeCache() *analyzeCache {
	return &analyzeCache{Cache: flight.New(resultCost)}
}

var analysisCache = newAnalyzeCache()

func (c *analyzeCache) stats() CacheStats {
	st := c.Stats()
	return CacheStats{
		Hits:          st.Hits,
		Misses:        st.Starts,
		Shared:        st.Shared,
		Evictions:     st.Evictions,
		Invalidations: c.invalidations.Load(),
		Entries:       st.Entries,
		InFlight:      st.InFlight,
		CostBytes:     st.Cost,
		CapEntries:    st.Cap,
	}
}

func (c *analyzeCache) invalidate() {
	c.Clear()
	c.invalidations.Add(1)
}

// resultCost approximates the heap bytes a retained Result keeps alive:
// the EIPV rows and the EIP table they index, the shared CSR matrix (the
// kmeans view aliases the rtree CSR, so it is not double-counted), and the
// k-means Gram matrix, counted from the start although the first
// clustering builds it.
// The per-element constants are rough struct sizes, not exact accounting
// — the point is proportionality, so the CostBytes gauge tracks real
// memory pressure across workloads of very different sizes.
func resultCost(r *Result) int64 {
	if r == nil {
		return 0
	}
	const (
		vectorBytes   = 104 // eipv.Vector: ints, floats and two slice headers
		rowEntryBytes = 8   // one EIPV row entry: int32 rank and count
		csrEntryBytes = 16  // row CSR (feature, count, bin) + column index row, int32 each
		featureBytes  = 16  // EIP, column start and first bin
		binBytes      = 4   // a bin's count value
	)
	cost := int64(4096) // Result struct, slice headers, Space regions
	if r.Set != nil {
		cost += int64(len(r.Set.EIPTable)) * 8
		for i := range r.Set.Vectors {
			cost += vectorBytes + int64(len(r.Set.Vectors[i].Ranks))*rowEntryBytes
		}
	}
	if r.Matrix != nil {
		_, rf, _ := r.Matrix.RowCSR()
		cost += int64(r.Matrix.NumRows())*24 + int64(r.Matrix.NumFeatures())*featureBytes +
			int64(r.Matrix.NumBins())*binBytes + int64(len(rf))*csrEntryBytes
	}
	if r.KMeans != nil {
		cost += r.KMeans.GramBytes()
	}
	return cost
}

// AnalysisCacheStats returns a snapshot of the process-wide Analyze cache
// counters.
func AnalysisCacheStats() CacheStats { return analysisCache.stats() }

// AnalysisCached reports whether Analyze(name, opt) would be answered from
// a completed, retained cache entry — no simulation and no waiting. The
// answer is advisory (the entry may be evicted before a subsequent
// Analyze); use it for scheduling, never correctness.
func AnalysisCached(name string, opt Options) bool {
	opt = opt.withDefaults()
	return analysisCache.Available(cacheKey(name, opt), true)
}

// AnalysisShareable reports whether Analyze(name, opt) would be answered
// without starting new simulation work: either a completed cached entry or
// an in-flight flight the call would join (singleflight). Serve-layer
// admission control uses this to let requests that merely share existing
// work bypass the simulation-concurrency budget. Advisory, like
// AnalysisCached.
func AnalysisShareable(name string, opt Options) bool {
	opt = opt.withDefaults()
	return analysisCache.Available(cacheKey(name, opt), false)
}

// SetAnalysisCacheCap bounds the process-wide Analyze cache to at most n
// completed entries, evicting least-recently-used results immediately if
// the cache is already over the bound, and returns the previous cap.
// n <= 0 removes the bound (the default, preserving the CLI's
// simulate-once-per-configuration behavior). In-flight computations are
// never evicted.
func SetAnalysisCacheCap(n int) int { return analysisCache.SetCap(n) }

// InvalidateAnalysisCache drops every memoized Analyze result (and resets
// nothing else: the hit/miss counters keep accumulating). In-flight
// computations finish and hand their result to their current waiters, but
// are not re-admitted to the cache. The profile store's memory tier is
// dropped too, so "invalidate" means what benchmarks expect — the next
// Analyze really re-simulates (unless an on-disk profile tier serves it).
func InvalidateAnalysisCache() {
	analysisCache.invalidate()
	profiles.DropMemory()
}

// String renders the stats as a one-line summary.
func (s CacheStats) String() string {
	return fmt.Sprintf("analyze cache: %d hits, %d misses, %d shared flights, %d evictions, %d live entries (%d in flight, ~%.1f MiB)",
		s.Hits, s.Misses, s.Shared, s.Evictions, s.Entries, s.InFlight, float64(s.CostBytes)/(1<<20))
}
