// Command loadgen drives a cache-miss storm against a live `fuzzyphase
// serve` instance and reports the analysis endpoint's latency
// distribution, throughput, and error/shed counts — the measured load
// posture the paper's thesis demands we have for our own service instead
// of assuming.
//
// Every request carries a distinct seed, so every request is a fresh
// simulation: the expensive path admission control exists to protect.
// Point it at a server started with small -heavy-limit/-heavy-queue and
// the shed (429) counts, Retry-After conformance, and queue-bounded
// latency become the measurement. The result goes to stdout as one
// greppable line. Timed, bounded serve numbers (uploads and cache hits)
// come from fzbench's serve-upload workload.
//
// Exit status is 0 unless -fail-on-5xx is set and a 5xx (or transport
// error) was observed.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The requests cycle through these workloads, and the first request's
// seed is seedBase+1.
var workloads = []string{"spec.gzip", "odb-c", "sjas"}

const seedBase = 10_000

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "base URL of the serve instance")
	duration := flag.Duration("duration", 5*time.Second, "wall-clock budget of the run")
	concurrency := flag.Int("concurrency", 8, "concurrent client workers")
	intervals := flag.Int("intervals", 60, "intervals query parameter for analysis requests")
	warmup := flag.Int("warmup", 6, "warmup query parameter for analysis requests")
	failOn5xx := flag.Bool("fail-on-5xx", false, "exit 1 if any 5xx or transport error was observed")
	flag.Parse()

	client := &http.Client{Timeout: 2 * time.Minute}
	base := strings.TrimSuffix(*addr, "/")
	var seedNext atomic.Int64
	seedNext.Store(seedBase)
	// one issues a distinct-Options analysis and reports what happened;
	// status 0 means a transport-level failure.
	one := func() (status int, dur time.Duration, retryAfter bool) {
		seed := seedNext.Add(1)
		name := workloads[int(seed)%len(workloads)]
		start := time.Now()
		resp, err := client.Get(fmt.Sprintf("%s/v1/analyze/%s?intervals=%d&warmup=%d&seed=%d",
			base, name, *intervals, *warmup, seed))
		if err != nil {
			return 0, time.Since(start), false
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, time.Since(start), resp.Header.Get("Retry-After") != ""
	}

	st := run(one, *duration, *concurrency)
	fmt.Println(st.line())
	if (st.Err5xx > 0 || st.NetErr > 0) && *failOn5xx {
		fmt.Fprintln(os.Stderr, "loadgen: observed 5xx or transport errors")
		os.Exit(1)
	}
}

// runStats aggregates the run's observations.
type runStats struct {
	Count int
	RPS   float64
	P50ms float64
	P90ms float64
	P99ms float64
	OK    int
	// Shed counts 429 responses; RetryAfterMissing counts the subset that
	// arrived without a Retry-After header (must stay 0).
	Shed              int
	RetryAfterMissing int
	Err4xx            int
	Err5xx            int
	NetErr            int

	durs []float64 // milliseconds
}

func (s *runStats) observe(ms float64, status int, retryAfter bool) {
	s.Count++
	s.durs = append(s.durs, ms)
	switch {
	case status == 0:
		s.NetErr++
	case status == http.StatusTooManyRequests:
		s.Shed++
		if !retryAfter {
			s.RetryAfterMissing++
		}
	case status >= 500:
		s.Err5xx++
	case status >= 400:
		s.Err4xx++
	default:
		s.OK++
	}
}

func (s *runStats) finalize(elapsed time.Duration) {
	sort.Float64s(s.durs)
	q := func(p float64) float64 {
		if len(s.durs) == 0 {
			return 0
		}
		return s.durs[int(p*float64(len(s.durs)-1)+0.5)]
	}
	s.P50ms, s.P90ms, s.P99ms = q(0.50), q(0.90), q(0.99)
	if elapsed > 0 {
		s.RPS = float64(s.Count) / elapsed.Seconds()
	}
	s.durs = nil
}

func (s *runStats) line() string {
	return fmt.Sprintf("mix=cold endpoint=analyze count=%d rps=%.1f p50_ms=%.2f p90_ms=%.2f p99_ms=%.2f ok=%d shed=%d retry_after_missing=%d err4xx=%d err5xx=%d neterr=%d",
		s.Count, s.RPS, s.P50ms, s.P90ms, s.P99ms,
		s.OK, s.Shed, s.RetryAfterMissing, s.Err4xx, s.Err5xx, s.NetErr)
}

// run calls one on `workers` goroutines until d has passed and returns
// the aggregated stats.
func run(one func() (int, time.Duration, bool), d time.Duration, workers int) *runStats {
	type obs struct {
		ms         float64
		status     int
		retryAfter bool
	}
	results := make([][]obs, workers)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				status, dur, retry := one()
				results[w] = append(results[w], obs{float64(dur.Microseconds()) / 1e3, status, retry})
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	st := &runStats{}
	for _, rs := range results {
		for _, o := range rs {
			st.observe(o.ms, o.status, o.retryAfter)
		}
	}
	st.finalize(elapsed)
	return st
}
