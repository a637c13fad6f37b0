package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/experiment"
)

// fastQuery keeps handler tests quick; it matches the experiment package's
// fast() test options.
const fastQuery = "intervals=60&warmup=6&seed=1"

func newTestServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(cfg).Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		// Serve tests may bound or populate the process-wide cache; leave it
		// unbounded and empty for whoever runs next in this binary. The same
		// goes for the profile store's memory tier (serve caps it alongside
		// the Analyze cache).
		experiment.SetAnalysisCacheCap(0)
		experiment.SetProfileMemCap(0)
		experiment.SetProfileLogf(nil)
		_ = experiment.SetProfileDir("")
		experiment.InvalidateAnalysisCache()
	})
	return ts
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestAnalyzeByteIdenticalToCLI is the serve-mode parity criterion: the
// /v1/analyze body must match what `fuzzyphase run` prints for the same
// options, byte for byte.
func TestAnalyzeByteIdenticalToCLI(t *testing.T) {
	ts := newTestServer(t, Config{})

	code, body := get(t, ts.URL+"/v1/analyze/spec.gzip?"+fastQuery)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}

	res, err := experiment.AnalyzeCtx(context.Background(),
		"spec.gzip", experiment.Options{Intervals: 60, Warmup: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := experiment.Summary(res); body != want {
		t.Fatalf("served body diverges from CLI summary:\n--- served ---\n%s--- cli ---\n%s", body, want)
	}

	// The spec. prefix is optional in the URL, and both spellings share one
	// cache entry.
	code, alias := get(t, ts.URL+"/v1/analyze/gzip?"+fastQuery)
	if code != http.StatusOK || alias != body {
		t.Fatalf("alias /v1/analyze/gzip: status %d, body match %v", code, alias == body)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	ts := newTestServer(t, Config{})
	cases := []struct {
		path string
		want int
	}{
		{"/v1/analyze/not-a-workload?" + fastQuery, http.StatusNotFound},
		{"/v1/analyze/?" + fastQuery, http.StatusBadRequest},
		{"/v1/analyze/spec.gzip/extra", http.StatusBadRequest},
		{"/v1/analyze/spec.gzip?intervals=sixty", http.StatusBadRequest},
		{"/v1/analyze/spec.gzip?intervalls=60", http.StatusBadRequest}, // typo must not run defaults
		{"/v1/analyze/spec.gzip?machine=vax", http.StatusBadRequest},
		{"/v1/analyze/spec.gzip?timeout=banana", http.StatusBadRequest},
		{"/v1/table/7?" + fastQuery, http.StatusNotFound},
		{"/v1/table/3?" + fastQuery, http.StatusNotFound},
		{"/v1/table/abc?" + fastQuery, http.StatusNotFound},
		{"/v1/figure/99?" + fastQuery, http.StatusNotFound},
		{"/v1/figure/abc?" + fastQuery, http.StatusNotFound},
		{"/v1/figure/1?" + fastQuery, http.StatusNotFound},
	}
	for _, tc := range cases {
		if code, body := get(t, ts.URL+tc.path); code != tc.want {
			t.Errorf("GET %s = %d, want %d (%s)", tc.path, code, tc.want, strings.TrimSpace(body))
		}
	}
	// The served figure IDs are the figure table's: an unknown one is a
	// 404 carrying the CLI's message, and HEAD checks it too.
	if _, body := get(t, ts.URL+"/v1/figure/1?"+fastQuery); !strings.Contains(body, "no figure 1 (the paper has figures 1-13; figure 1 is part of table 1)") {
		t.Errorf("GET /v1/figure/1 body = %q, want the CLI's no-figure message", body)
	}
	if code, _, _ := head(t, ts.URL+"/v1/figure/14?"+fastQuery); code != http.StatusNotFound {
		t.Errorf("HEAD /v1/figure/14 = %d, want 404", code)
	}
	// Table IDs likewise come from the library's check, with its message.
	if _, body := get(t, ts.URL+"/v1/table/3?"+fastQuery); strings.TrimSpace(body) != "no table 3" {
		t.Errorf("GET /v1/table/3 body = %q, want the CLI's no-table message", body)
	}
	if code, _, _ := head(t, ts.URL+"/v1/table/3?"+fastQuery); code != http.StatusNotFound {
		t.Errorf("HEAD /v1/table/3 = %d, want 404", code)
	}

	resp, err := http.Post(ts.URL+"/v1/analyze/spec.gzip", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/analyze/spec.gzip = %d, want 405", resp.StatusCode)
	}
}

// TestNegativeMaxLeavesRejected: a negative leaf cap is a malformed
// option. It used to reach cross-validation and panic in a worker
// goroutine, which net/http cannot recover, so the whole server died.
func TestNegativeMaxLeavesRejected(t *testing.T) {
	ts := newTestServer(t, Config{})
	if code, body := get(t, ts.URL+"/v1/analyze/spec.gzip?"+fastQuery+"&max-leaves=-3"); code != http.StatusBadRequest {
		t.Fatalf("max-leaves=-3 = %d, want 400 (%s)", code, strings.TrimSpace(body))
	}
	if code, body := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz after max-leaves=-3 = %d %q", code, body)
	}
}

// TestRequestTimeout: an aggressive ?timeout= on a fresh (uncached) heavy
// analysis must come back 504, and the key must remain computable.
func TestRequestTimeout(t *testing.T) {
	ts := newTestServer(t, Config{})

	code, body := get(t, ts.URL+"/v1/analyze/odb-h.q18?intervals=640&seed=96&timeout=5ms")
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%s)", code, strings.TrimSpace(body))
	}
	// The timed-out flight must not poison the cache: a patient retry works.
	code, _ = get(t, ts.URL+"/v1/analyze/odb-h.q18?intervals=60&warmup=6&seed=96")
	if code != http.StatusOK {
		t.Fatalf("retry after timeout: status %d", code)
	}
}

// TestCacheBounded is the bounded-memory criterion: sweeping more distinct
// Options than the cap never exceeds the cap, and evictions are counted.
func TestCacheBounded(t *testing.T) {
	const capEntries = 2
	ts := newTestServer(t, Config{CacheEntries: capEntries})
	experiment.InvalidateAnalysisCache()

	const sweeps = 5 // > capEntries distinct option sets
	for seed := 0; seed < sweeps; seed++ {
		url := fmt.Sprintf("%s/v1/analyze/spec.gzip?intervals=60&warmup=6&seed=%d", ts.URL, 100+seed)
		if code, body := get(t, url); code != http.StatusOK {
			t.Fatalf("seed %d: status %d (%s)", seed, code, strings.TrimSpace(body))
		}
		if st := experiment.AnalysisCacheStats(); st.Entries > capEntries {
			t.Fatalf("after %d sweeps: Entries = %d exceeds cap %d", seed+1, st.Entries, capEntries)
		}
	}
	st := experiment.AnalysisCacheStats()
	if st.Entries != capEntries {
		t.Errorf("Entries = %d, want cap %d", st.Entries, capEntries)
	}
	if st.Evictions < sweeps-capEntries {
		t.Errorf("Evictions = %d, want >= %d", st.Evictions, sweeps-capEntries)
	}
	if st.CapEntries != capEntries {
		t.Errorf("CapEntries = %d, want %d", st.CapEntries, capEntries)
	}
}

// TestMetricsEndpoint: /metrics must expose the request counters and every
// cache series named in the issue (hits/misses/shared/evictions/in-flight).
func TestMetricsEndpoint(t *testing.T) {
	ts := newTestServer(t, Config{})

	// Generate one miss and one hit so counters are nonzero.
	experiment.InvalidateAnalysisCache()
	get(t, ts.URL+"/v1/analyze/spec.gzip?"+fastQuery)
	get(t, ts.URL+"/v1/analyze/spec.gzip?"+fastQuery)

	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	for _, series := range []string{
		`fuzzyphase_requests_total{endpoint="analyze"} 2`,
		"fuzzyphase_analyze_cache_hits_total",
		"fuzzyphase_analyze_cache_misses_total",
		"fuzzyphase_analyze_cache_shared_total",
		"fuzzyphase_analyze_cache_evictions_total",
		"fuzzyphase_analyze_cache_in_flight",
		"fuzzyphase_analyze_cache_entries",
		"fuzzyphase_requests_in_flight",
		"fuzzyphase_profilestore_hits",
		"fuzzyphase_profilestore_disk_hits",
		"fuzzyphase_profilestore_misses",
		"fuzzyphase_profilestore_writes",
		"fuzzyphase_profilestore_corruptions",
		"fuzzyphase_profilestore_bytes",
		"fuzzyphase_profilestore_entries",
		"fuzzyphase_profilestore_mem_bytes",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics missing %q", series)
		}
	}
	// The hit/miss totals reflect the two requests above (>= because other
	// tests in this binary share the process-wide cache counters).
	if !strings.Contains(body, "fuzzyphase_analyze_cache_hits_total ") {
		t.Error("hits series missing a value")
	}
}

func TestAuxiliaryEndpoints(t *testing.T) {
	ts := newTestServer(t, Config{})

	if code, body := get(t, ts.URL+"/healthz"); code != 200 || body != "ok\n" {
		t.Errorf("/healthz = %d %q", code, body)
	}
	code, body := get(t, ts.URL+"/v1/workloads")
	if code != 200 || !strings.Contains(body, "spec.gzip") || !strings.Contains(body, "odb-h.q13") {
		t.Errorf("/v1/workloads = %d, missing expected names:\n%s", code, body)
	}
	if code, body := get(t, ts.URL+"/v1/cache/stats"); code != 200 || !strings.Contains(body, "analyze cache:") ||
		!strings.Contains(body, "profile store:") {
		t.Errorf("/v1/cache/stats = %d %q", code, body)
	}
	if code, _ := get(t, ts.URL+"/debug/pprof/cmdline"); code != 200 {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}

	resp, err := http.Post(ts.URL+"/v1/cache/invalidate", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("POST /cache/invalidate = %d", resp.StatusCode)
	}
	if st := experiment.AnalysisCacheStats(); st.Entries != 0 {
		t.Errorf("cache not empty after invalidate: %+v", st)
	}
}

// TestFigureEndpoint spot-checks one cheap figure and the quadrant view
// render without error.
func TestFigureEndpoint(t *testing.T) {
	ts := newTestServer(t, Config{})
	code, body := get(t, ts.URL+"/v1/figure/13")
	if code != 200 || !strings.Contains(body, "quadrant space") {
		t.Errorf("/v1/figure/13 = %d:\n%s", code, body)
	}
}

// TestGracefulShutdown: cancelling the serve context drains and returns.
func TestGracefulShutdown(t *testing.T) {
	s := New(Config{Addr: "127.0.0.1:0", ShutdownGrace: 2 * time.Second})
	t.Cleanup(func() {
		experiment.SetAnalysisCacheCap(0)
		experiment.InvalidateAnalysisCache()
	})
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- s.ListenAndServe(ctx) }()
	time.Sleep(50 * time.Millisecond) // let the listener come up
	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("shutdown returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down")
	}
}

// TestMethodNotAllowedAccounted is the 405-accounting regression test:
// method probes used to return before the request/error counters and the
// access log, so a scanner hammering the service with bad methods was
// invisible in /metrics. Every arrival must move requests_total, and a
// 405 must move errors_total.
func TestMethodNotAllowedAccounted(t *testing.T) {
	ts := newTestServer(t, Config{})

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/workloads", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE /workloads = %d, want 405", resp.StatusCode)
	}

	_, body := get(t, ts.URL+"/metrics")
	for _, series := range []string{
		`fuzzyphase_requests_total{endpoint="workloads"} 1`,
		`fuzzyphase_request_errors_total{endpoint="workloads"} 1`,
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics missing %q after a 405 (method probes must be accounted)", series)
		}
	}
}

// head issues a HEAD request and returns status, body, and headers.
func head(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Head(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b), resp.Header
}

// TestHEADNeverSimulates: a HEAD probe on a cold analysis (the
// load-balancer health-check pattern) must answer 200 without running the
// pipeline; once the result is cached, HEAD reports the exact
// Content-Length of the GET body; and bad arguments still get their
// 4xx so probes keep their diagnostic value.
func TestHEADNeverSimulates(t *testing.T) {
	ts := newTestServer(t, Config{})
	experiment.InvalidateAnalysisCache()
	before := experiment.AnalysisCacheStats()

	// Cold probe: 200, empty body, no simulation started.
	code, body, hdr := head(t, ts.URL+"/v1/analyze/spec.gzip?"+fastQuery)
	if code != http.StatusOK || body != "" {
		t.Fatalf("cold HEAD = %d body %q, want 200 with empty body", code, body)
	}
	if cl := hdr.Get("Content-Length"); cl != "" && cl != "0" {
		t.Errorf("cold HEAD Content-Length = %q, want none (length unknown without simulating)", cl)
	}
	if st := experiment.AnalysisCacheStats(); st.Misses != before.Misses {
		t.Fatalf("cold HEAD started a simulation: misses %d -> %d", before.Misses, st.Misses)
	}

	// Same for the multi-workload renders.
	for _, path := range []string{"/v1/table/2?" + fastQuery, "/v1/figure/2?" + fastQuery, "/v1/quadrants?" + fastQuery} {
		if code, body, _ := head(t, ts.URL+path); code != http.StatusOK || body != "" {
			t.Errorf("HEAD %s = %d body %q, want 200 empty", path, code, body)
		}
	}
	if st := experiment.AnalysisCacheStats(); st.Misses != before.Misses {
		t.Fatal("a multi-workload HEAD probe started a simulation")
	}

	// Warm the key, then probe again: the body renders from cache and the
	// probe carries its exact length.
	_, full := get(t, ts.URL+"/v1/analyze/spec.gzip?"+fastQuery)
	code, body, hdr = head(t, ts.URL+"/v1/analyze/spec.gzip?"+fastQuery)
	if code != http.StatusOK || body != "" {
		t.Fatalf("warm HEAD = %d body %q", code, body)
	}
	if got := hdr.Get("Content-Length"); got != fmt.Sprint(len(full)) {
		t.Errorf("warm HEAD Content-Length = %q, want %d", got, len(full))
	}

	// Argument validation still happens before the short-circuit.
	if code, _, _ := head(t, ts.URL+"/v1/analyze/not-a-workload?"+fastQuery); code != http.StatusNotFound {
		t.Errorf("HEAD unknown workload = %d, want 404", code)
	}
	if code, _, _ := head(t, ts.URL+"/v1/analyze/spec.gzip?intervals=sixty"); code != http.StatusBadRequest {
		t.Errorf("HEAD bad options = %d, want 400", code)
	}
}

// TestProfileDirWarmRestart: a second server pointed at the same profile
// directory must serve a cold-cache analysis from the disk tier — the
// "fleet restart" scenario the store exists for — with a byte-identical
// body.
func TestProfileDirWarmRestart(t *testing.T) {
	// Let flights an earlier test left finishing end first, so none
	// counts or writes its entry inside this test's window.
	waitFor(t, "idle flights", func() bool {
		return experiment.AnalysisCacheStats().InFlight == 0 && experiment.ProfileStoreStats().InFlight == 0
	})
	dir := t.TempDir()

	ts := newTestServer(t, Config{ProfileDir: dir})
	experiment.InvalidateAnalysisCache()
	before := experiment.ProfileStoreStats()
	code, cold := get(t, ts.URL+"/v1/analyze/spec.gzip?"+fastQuery)
	if code != http.StatusOK {
		t.Fatalf("cold analyze: %d", code)
	}
	st := experiment.ProfileStoreStats()
	if st.Writes != before.Writes+1 {
		t.Fatalf("cold analyze wrote %d entries, want 1", st.Writes-before.Writes)
	}
	ts.Close()

	// "Restart": fresh server, empty in-process caches, same directory.
	experiment.InvalidateAnalysisCache()
	ts2 := newTestServer(t, Config{ProfileDir: dir})
	code, warm := get(t, ts2.URL+"/v1/analyze/spec.gzip?"+fastQuery)
	if code != http.StatusOK {
		t.Fatalf("warm analyze: %d", code)
	}
	if warm != cold {
		t.Fatal("disk-warm response differs from cold response")
	}
	st2 := experiment.ProfileStoreStats()
	if st2.DiskHits != st.DiskHits+1 {
		t.Fatalf("disk hits %d→%d, want +1", st.DiskHits, st2.DiskHits)
	}

	// /metrics reflects the store counters.
	_, body := get(t, ts2.URL+"/metrics")
	if !strings.Contains(body, "fuzzyphase_profilestore_disk_hits") {
		t.Error("/metrics missing profile store series")
	}
}
