// Command loadgen replays configurable request mixes against a live
// `fuzzyphase serve` instance and reports per-endpoint latency
// distributions, throughput, and error/shed counts — the measured load
// posture the paper's thesis demands we have for our own service instead
// of assuming.
//
// Mixes (comma-separated in -mix, or "all"):
//
//	hot      repeated analyses of a fixed option set — after the first
//	         request per workload everything is an Analyze-cache hit, so
//	         this measures the cheap-read path (plus interleaved
//	         /workloads reads).
//	cold     a cache-miss storm: every request carries a distinct seed,
//	         so every request is a fresh simulation. This is the
//	         expensive path admission control exists to protect.
//	upload   POST /v1/analyze bursts in both wire encodings (JSON and
//	         binary), cycling a small set of synthetic profiles so the
//	         mix exercises both cold ingestion and content-hash cache
//	         hits.
//
// Any mix doubles as an overload run: point it at a server started with
// small -heavy-limit/-heavy-queue and the shed (429) counts, Retry-After
// conformance, and queue-bounded latency become the measurement. Results
// go to stdout as one greppable line per (mix, endpoint). Timed,
// bounded serve numbers come from fzbench's serve-upload workload.
//
// Exit status is 0 unless -fail-on-5xx is set and a 5xx (or transport
// error) was observed.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/profilefmt"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "base URL of the serve instance")
	mixFlag := flag.String("mix", "all", "comma-separated mixes to run: hot,cold,upload (or all)")
	duration := flag.Duration("duration", 5*time.Second, "wall-clock budget per mix")
	concurrency := flag.Int("concurrency", 8, "concurrent client workers per mix")
	intervals := flag.Int("intervals", 60, "intervals query parameter for analysis requests")
	warmup := flag.Int("warmup", 6, "warmup query parameter for analysis requests")
	workloads := flag.String("workloads", "spec.gzip,odb-c,sjas", "comma-separated workloads the analysis mixes cycle through")
	seedBase := flag.Int64("seed-base", 10_000, "first seed of the cold mix's distinct-Options sweep")
	failOn5xx := flag.Bool("fail-on-5xx", false, "exit 1 if any 5xx or transport error was observed")
	flag.Parse()

	mixes := strings.Split(*mixFlag, ",")
	if *mixFlag == "all" {
		mixes = []string{"hot", "cold", "upload"}
	}
	names := strings.Split(*workloads, ",")

	client := &http.Client{Timeout: 2 * time.Minute}
	run := &runner{
		client:    client,
		base:      strings.TrimSuffix(*addr, "/"),
		names:     names,
		intervals: *intervals,
		warmup:    *warmup,
		seedNext:  *seedBase,
		payloads:  buildUploadPayloads(4),
	}

	bad := false
	for _, mix := range mixes {
		mix = strings.TrimSpace(mix)
		stats := run.runMix(mix, *duration, *concurrency)
		for _, ep := range sortedKeys(stats) {
			st := stats[ep]
			fmt.Println(st.line(mix, ep))
			if st.Err5xx > 0 || st.NetErr > 0 {
				bad = true
			}
		}
	}

	if bad && *failOn5xx {
		fmt.Fprintln(os.Stderr, "loadgen: observed 5xx or transport errors")
		os.Exit(1)
	}
}

// endpointStats aggregates one (mix, endpoint)'s observations.
type endpointStats struct {
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

func (s *endpointStats) observe(ms float64, status int, retryAfter bool) {
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

func (s *endpointStats) finalize(elapsed time.Duration) {
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

func (s *endpointStats) line(mix, endpoint string) string {
	return fmt.Sprintf("mix=%s endpoint=%s count=%d rps=%.1f p50_ms=%.2f p90_ms=%.2f p99_ms=%.2f ok=%d shed=%d retry_after_missing=%d err4xx=%d err5xx=%d neterr=%d",
		mix, endpoint, s.Count, s.RPS, s.P50ms, s.P90ms, s.P99ms,
		s.OK, s.Shed, s.RetryAfterMissing, s.Err4xx, s.Err5xx, s.NetErr)
}

// payload is one pre-encoded upload body.
type payload struct {
	contentType string
	body        []byte
}

// runner issues the requests of one process-wide run.
type runner struct {
	client    *http.Client
	base      string
	names     []string
	intervals int
	warmup    int
	seedNext  int64 // atomic: the cold mix's distinct-seed counter
	payloads  []payload
}

// runMix drives one mix for its duration on `workers` goroutines and
// returns per-endpoint stats.
func (r *runner) runMix(mix string, d time.Duration, workers int) map[string]*endpointStats {
	type obs struct {
		endpoint   string
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
			for i := 0; time.Now().Before(deadline); i++ {
				ep, status, dur, retry := r.one(mix, w, i)
				results[w] = append(results[w], obs{ep, float64(dur.Microseconds()) / 1e3, status, retry})
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	stats := map[string]*endpointStats{}
	for _, rs := range results {
		for _, o := range rs {
			st := stats[o.endpoint]
			if st == nil {
				st = &endpointStats{}
				stats[o.endpoint] = st
			}
			st.observe(o.ms, o.status, o.retryAfter)
		}
	}
	for _, st := range stats {
		st.finalize(elapsed)
	}
	return stats
}

// one issues the i-th request of worker w for the mix and reports what
// happened. status 0 means a transport-level failure.
func (r *runner) one(mix string, w, i int) (endpoint string, status int, dur time.Duration, retryAfter bool) {
	switch mix {
	case "hot":
		// 1 in 5 requests reads the cheap endpoint; the rest re-analyze a
		// fixed option set (cache hits after the first pass).
		if i%5 == 4 {
			return r.get("workloads", "/workloads")
		}
		name := r.names[i%len(r.names)]
		return r.get("analyze", fmt.Sprintf("/analyze/%s?intervals=%d&warmup=%d&seed=1",
			name, r.intervals, r.warmup))
	case "cold":
		// Every request is a distinct Options key: a fresh simulation, the
		// worst case the admission budget is sized for.
		seed := atomic.AddInt64(&r.seedNext, 1)
		name := r.names[int(seed)%len(r.names)]
		return r.get("analyze", fmt.Sprintf("/analyze/%s?intervals=%d&warmup=%d&seed=%d",
			name, r.intervals, r.warmup, seed))
	case "upload":
		p := r.payloads[(w+i)%len(r.payloads)]
		return r.post("upload-analyze", "/v1/analyze", p)
	default:
		fmt.Fprintf(os.Stderr, "loadgen: unknown mix %q (want hot, cold, upload, or all)\n", mix)
		os.Exit(2)
		return
	}
}

func (r *runner) get(endpoint, path string) (string, int, time.Duration, bool) {
	start := time.Now()
	resp, err := r.client.Get(r.base + path)
	dur := time.Since(start)
	if err != nil {
		return endpoint, 0, dur, false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return endpoint, resp.StatusCode, time.Since(start), resp.Header.Get("Retry-After") != ""
}

func (r *runner) post(endpoint, path string, p payload) (string, int, time.Duration, bool) {
	start := time.Now()
	resp, err := r.client.Post(r.base+path, p.contentType, bytes.NewReader(p.body))
	dur := time.Since(start)
	if err != nil {
		return endpoint, 0, dur, false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return endpoint, resp.StatusCode, time.Since(start), resp.Header.Get("Retry-After") != ""
}

// buildUploadPayloads pre-encodes n distinct synthetic EIPV profiles,
// alternating wire encodings, so the upload mix exercises both decoders
// and both the cold and content-hash-hit ingestion paths without needing
// any server-side state.
func buildUploadPayloads(n int) []payload {
	out := make([]payload, 0, 2*n)
	for v := 0; v < n; v++ {
		p := syntheticProfile(v)
		var jbuf bytes.Buffer
		if err := profilefmt.EncodeJSON(&jbuf, p); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen: encode:", err)
			os.Exit(1)
		}
		out = append(out,
			payload{contentType: "application/json", body: jbuf.Bytes()},
			payload{contentType: "application/octet-stream", body: profilefmt.EncodeBinary(p)})
	}
	return out
}

// syntheticProfile builds a small deterministic EIPV profile: 40 rows
// (enough for the default 10-fold cross-validation) over a few dozen
// code regions, with CPI loosely following one region's weight so the
// analysis finds real structure. variant perturbs the generator seed so
// distinct variants hash to distinct upload cache keys.
func syntheticProfile(variant int) *profilefmt.Profile {
	rng := rand.New(rand.NewSource(int64(7919 + variant)))
	const rows, features = 40, 24
	p := &profilefmt.Profile{
		Name:          fmt.Sprintf("loadgen-%d", variant),
		Machine:       "itanium2",
		IntervalInsts: 1_000_000,
	}
	for i := 0; i < rows; i++ {
		row := profilefmt.Row{}
		total := int64(0)
		for f := 0; f < features; f++ {
			c := int64(rng.Intn(50))
			if c == 0 {
				continue
			}
			row.EIPs = append(row.EIPs, uint64(0x400000+f*64))
			row.Counts = append(row.Counts, c)
			if f == 0 {
				total = c
			}
		}
		if len(row.EIPs) == 0 {
			row.EIPs = []uint64{0x400000}
			row.Counts = []int64{1}
			total = 1
		}
		row.CPI = 0.8 + 0.02*float64(total) + 0.05*rng.Float64()
		p.Rows = append(p.Rows, row)
	}
	return p
}

func sortedKeys(m map[string]*endpointStats) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
