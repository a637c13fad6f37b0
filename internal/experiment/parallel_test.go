package experiment

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// renderPipelines regenerates Table 2, Figure 2, and the §7.1 interval
// sweep at the given parallelism and returns the concatenated rendered
// text, plus the progress-callback order observed from Table2.
func renderPipelines(t *testing.T, parallelism int) (string, []string) {
	t.Helper()
	opt := Options{Seed: 1, Intervals: 40, Warmup: 4, Parallelism: parallelism}
	var buf bytes.Buffer
	var progressed []string

	rows, err := Table2(context.Background(), opt, func(name string, _ Table2Row) {
		progressed = append(progressed, name)
	})
	if err != nil {
		t.Fatal(err)
	}
	RenderTable2(&buf, rows)

	if err := WriteFigure(context.Background(), &buf, 2, opt, false); err != nil {
		t.Fatal(err)
	}

	sweep, err := Section71Intervals(context.Background(), []string{"spec.mcf"}, opt)
	if err != nil {
		t.Fatal(err)
	}
	RenderSweep(&buf, "interval sweep", sweep)

	return buf.String(), progressed
}

// TestParallelDeterminism is the regression test for the engine's central
// guarantee: rendered output is byte-identical at any parallelism level.
// The parallel pass runs first and cold, so the package keeps a cold
// collection at Parallelism 8. Between the passes only the analysis cache
// is cleared: the serial pass reads the collections back from the profile
// store's memory tier and really recomputes every analysis, instead of
// replaying memoized results or simulating each workload a second time.
func TestParallelDeterminism(t *testing.T) {
	InvalidateAnalysisCache()
	parallel, parallelOrder := renderPipelines(t, 8)
	analysisCache.invalidate()
	serial, serialOrder := renderPipelines(t, 1)

	if serial != parallel {
		t.Fatalf("rendered output differs between Parallelism=1 and Parallelism=8:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}

	// Progress callbacks must fire in table order at both settings.
	want := Table2Workloads()
	if len(serialOrder) != len(want) || len(parallelOrder) != len(want) {
		t.Fatalf("progress counts: serial %d, parallel %d, want %d",
			len(serialOrder), len(parallelOrder), len(want))
	}
	for i, r := range want {
		if serialOrder[i] != r.Name {
			t.Fatalf("serial progress[%d] = %s, want %s", i, serialOrder[i], r.Name)
		}
		if parallelOrder[i] != r.Name {
			t.Fatalf("parallel progress[%d] = %s, want %s", i, parallelOrder[i], r.Name)
		}
	}
}

// TestAnalyzeMemoization asserts that repeated Analyze calls with an
// equivalent configuration are served from the cache, and that Parallelism
// does not fragment cache keys.
func TestAnalyzeMemoization(t *testing.T) {
	InvalidateAnalysisCache()
	before := AnalysisCacheStats()

	opt := fast()
	a, err := Analyze("spec.gzip", opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Parallelism = 4 // different worker count, same analysis
	b, err := Analyze("spec.gzip", opt)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("second Analyze did not return the memoized result")
	}

	after := AnalysisCacheStats()
	if got := after.Misses - before.Misses; got != 1 {
		t.Fatalf("misses = %d, want 1", got)
	}
	if got := after.Hits - before.Hits; got != 1 {
		t.Fatalf("hits = %d, want 1", got)
	}

	// A changed option must miss.
	opt.Seed = 2
	c, err := Analyze("spec.gzip", opt)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("different seed returned the same cached result")
	}
	if got := AnalysisCacheStats().Misses - before.Misses; got != 2 {
		t.Fatalf("misses after seed change = %d, want 2", got)
	}

	// Invalidation forces recomputation.
	InvalidateAnalysisCache()
	opt.Seed = 1
	if _, err := Analyze("spec.gzip", opt); err != nil {
		t.Fatal(err)
	}
	if got := AnalysisCacheStats().Misses - before.Misses; got != 3 {
		t.Fatalf("misses after invalidation = %d, want 3", got)
	}
}

// TestAnalyzeSingleflight checks that concurrent Analyze calls for one key
// run the pipeline exactly once.
func TestAnalyzeSingleflight(t *testing.T) {
	InvalidateAnalysisCache()
	before := AnalysisCacheStats()

	const callers = 8
	results := make([]*Result, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := Analyze("spec.gzip", fast())
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()

	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatal("concurrent callers observed different results")
		}
	}
	after := AnalysisCacheStats()
	if got := after.Misses - before.Misses; got != 1 {
		t.Fatalf("misses = %d, want 1 (singleflight)", got)
	}
	if got := (after.Hits - before.Hits) + (after.Shared - before.Shared); got != callers-1 {
		t.Fatalf("hits+shared = %d, want %d", got, callers-1)
	}
}

// TestTable2ProgressBelowFailure: when a Table2 row fails, every row above
// it in the table still completes and reports progress, and the error is
// the failing row's own — what a serial loop over the rows would give.
// Rows 0..failAt are held in flight in the Analyze cache, so all of them
// are claimed before the failure lands, and the rows above the failure
// finish only after it. A pool that cancels them would lose their progress
// and return their context.Canceled instead.
func TestTable2ProgressBelowFailure(t *testing.T) {
	InvalidateAnalysisCache()
	defer InvalidateAnalysisCache()
	const failAt = 3
	// Seed 95 keeps every cache key disjoint from the other tests.
	opt := Options{Seed: 95, Intervals: 40, Warmup: 4, Parallelism: failAt + 1}
	rows := Table2Workloads()
	boom := errors.New("injected failure")
	release, fail := make(chan struct{}), make(chan struct{})

	waitFor := func(what string, cond func(CacheStats) bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond(AnalysisCacheStats()) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	before := AnalysisCacheStats()
	for i := 0; i <= failAt; i++ {
		gate, err, res := release, error(nil), &Result{Name: rows[i].Name}
		if i == failAt {
			gate, err, res = fail, boom, nil
		}
		go analysisCache.Get(context.Background(), cacheKey(rows[i].Name, opt.withDefaults()),
			func(context.Context) (*Result, error) {
				<-gate
				return res, err
			})
	}
	waitFor("the injected flights", func(s CacheStats) bool { return s.Misses-before.Misses == failAt+1 })

	var progressed []string
	done := make(chan error, 1)
	go func() {
		_, err := Table2(context.Background(), opt, func(name string, _ Table2Row) {
			progressed = append(progressed, name)
		})
		done <- err
	}()
	waitFor("Table2 to join every flight", func(s CacheStats) bool { return s.Shared-before.Shared == failAt+1 })
	close(fail)
	time.Sleep(20 * time.Millisecond) // room for a pool that cancels too much to do so
	close(release)

	if err := <-done; !errors.Is(err, boom) {
		t.Fatalf("Table2 err = %v, want the failing row's %v", err, boom)
	}
	if len(progressed) != failAt {
		t.Fatalf("progress fired for %v, want the %d rows above the failure", progressed, failAt)
	}
	for i, name := range progressed {
		if name != rows[i].Name {
			t.Fatalf("progress[%d] = %s, want %s", i, name, rows[i].Name)
		}
	}
}

// TestTable2ErrorPropagation: a failing workload surfaces its own error
// even under parallel execution (Intervals too small for 10 folds).
func TestTable2ErrorPropagation(t *testing.T) {
	InvalidateAnalysisCache()
	_, err := Table2(context.Background(), Options{Seed: 1, Intervals: 12, Warmup: 2, Parallelism: 8}, nil)
	if err == nil {
		t.Fatal("Table2 with too few intervals did not error")
	}
	InvalidateAnalysisCache()
}

// TestProgressGateOrder exercises the gate directly with adversarial
// completion order.
func TestProgressGateOrder(t *testing.T) {
	var got []int
	g := newProgressGate(5, func(i int) { got = append(got, i) })
	for _, i := range []int{3, 1, 0, 4, 2} {
		g.done(i)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("progress order %v, want ascending", got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("%d callbacks, want 5", len(got))
	}
}
