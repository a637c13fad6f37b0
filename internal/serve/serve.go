// Package serve turns the analysis engine into a long-running HTTP
// service: the same pipelines the CLI drives — per-workload analysis,
// Table 2, the figures, the quadrant classification — behind GET
// endpoints, backed by the process-wide memoized Analyze cache, plus
// external-profile ingestion: POST /v1/analyze and POST /v1/quadrant
// accept a profilefmt EIPV profile (JSON or binary, negotiated by
// Content-Type) and run the workload-agnostic back half of the pipeline
// on it.
//
// The API is mounted under the versioned /v1/ prefix only; an unprefixed
// API path is a 404. The operational endpoints (/healthz, /metrics,
// /debug/) stay unversioned at the root. Errors are rendered as the JSON
// envelope {"error":{"code","message"}} when the client accepts JSON
// (or the endpoint itself is JSON-native), plain text otherwise.
//
// Design invariants:
//
//   - Byte parity with the CLI: every endpoint renders through the exact
//     render functions the CLI uses, so a served body is byte-identical to
//     the corresponding command's stdout (serve_test locks this).
//   - Cancellation all the way down: the request context is threaded
//     through AnalyzeCtx into the simulator's scheduling loop and the
//     cross-validation folds. A disconnected client stops paying for
//     simulation — unless other requests share the flight, in which case
//     it keeps running for them (singleflight semantics; see the
//     experiment cache).
//   - Bounded memory: Config.CacheEntries caps the Analyze LRU so a sweep
//     of distinct Options cannot grow the heap without bound.
//   - Observability: /metrics (Prometheus text format), /debug/vars
//     (expvar), and /debug/pprof are always mounted.
//
// Responses are rendered into a buffer before the first byte is written,
// so error responses are never mixed with partial bodies.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	fuzzyphase "repro"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/profiler"
	"repro/internal/profstore"
)

// Config tunes the service.
type Config struct {
	// Addr is the listen address (default ":8080").
	Addr string
	// Base supplies per-request Options defaults (seed, machine, budget);
	// query parameters override individual fields.
	Base experiment.Options
	// CacheEntries bounds the Analyze memoization cache (LRU entries;
	// 0 = unbounded). Applied at construction via SetAnalysisCacheCap.
	// The profile store's in-memory tier is capped to the same count.
	CacheEntries int
	// ProfileDir, if nonempty, attaches a persistent profile store: every
	// collected profile is content-addressed there and reused across
	// restarts (and other processes sharing the directory). An unusable
	// directory is logged and the store degrades to memory-only — serving
	// is never blocked on it.
	ProfileDir string
	// RequestTimeout, if nonzero, is the per-request deadline. A request
	// may lower it with ?timeout=, never raise it.
	RequestTimeout time.Duration
	// ShutdownGrace bounds connection draining on shutdown (default 10s).
	ShutdownGrace time.Duration
	// HeavyLimit caps concurrently-admitted simulation-backed requests
	// (analyze, explain, table, figure, quadrants, profile uploads).
	// 0 applies the default (2×NumCPU, minimum 8); negative = unlimited.
	// Requests whose analysis is already cached or in flight bypass this
	// budget (joining existing work adds no simulator load).
	HeavyLimit int
	// HeavyQueue bounds how many heavy requests may wait for an admission
	// slot before the rest are shed with 429 + Retry-After. 0 applies the
	// default (4×HeavyLimit); negative = no queue (shed as soon as the
	// limit is reached).
	HeavyQueue int
	// RetryAfter is the advice carried on 429 responses (default 1s,
	// rounded up to whole seconds).
	RetryAfter time.Duration
	// Logf, if non-nil, receives one line per request and lifecycle event.
	Logf func(format string, args ...any)
}

// The cheap cached-read class (workloads, cache stats, invalidate) admits
// lightLimit requests at a time and queues lightQueue more.
const (
	lightLimit = 256
	lightQueue = 1024
)

// resolveLimit maps a Config limit knob to its effective value: 0 picks
// def, negative disables the bound.
func resolveLimit(v, def int) int {
	if v == 0 {
		return def
	}
	if v < 0 {
		return 0 // limiter treats 0 as unlimited
	}
	return v
}

// Server is the HTTP service.
type Server struct {
	cfg Config
	mux *http.ServeMux

	reg      *metrics.Registry
	requests func(endpoint string) *metrics.Counter
	errors   func(endpoint string) *metrics.Counter
	latency  func(endpoint string) *metrics.Summary
	inFlight atomic.Int64

	uploads             func(encoding string) *metrics.Counter
	uploadBytes         *metrics.Counter
	uploadRejects       *metrics.Counter
	uploadRejectedBytes *metrics.Counter

	// Admission classes (see admission.go).
	heavy, light *limiter
	retryAfter   int // whole seconds, for Retry-After headers

	workloads map[string]bool
}

// New builds a server. It applies Config.CacheEntries to the process-wide
// Analyze cache immediately.
func New(cfg Config) *Server {
	if cfg.Addr == "" {
		cfg.Addr = ":8080"
	}
	if cfg.ShutdownGrace <= 0 {
		cfg.ShutdownGrace = 10 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.CacheEntries > 0 {
		experiment.SetAnalysisCacheCap(cfg.CacheEntries)
		experiment.SetProfileMemCap(cfg.CacheEntries)
	}
	experiment.SetProfileLogf(cfg.Logf)
	if cfg.ProfileDir != "" {
		if err := experiment.SetProfileDir(cfg.ProfileDir); err != nil {
			cfg.Logf("profile store: %v — continuing memory-only", err)
		}
	}

	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}

	s := &Server{cfg: cfg, mux: http.NewServeMux(), reg: metrics.NewRegistry()}
	s.workloads = map[string]bool{}
	for _, name := range fuzzyphase.Workloads() {
		s.workloads[name] = true
	}

	heavyLimit := resolveLimit(cfg.HeavyLimit, max(8, 2*runtime.NumCPU()))
	heavyQueue := resolveLimit(cfg.HeavyQueue, 4*heavyLimit)
	s.heavy = newLimiter("heavy", heavyLimit, heavyQueue)
	s.light = newLimiter("light", lightLimit, lightQueue)
	s.retryAfter = int((cfg.RetryAfter + time.Second - 1) / time.Second)

	s.requests = s.reg.LabeledCounter("fuzzyphase_requests_total",
		"Requests received, by endpoint.", "endpoint")
	s.errors = s.reg.LabeledCounter("fuzzyphase_request_errors_total",
		"Requests answered with a non-2xx status, by endpoint.", "endpoint")
	s.latency = s.reg.LabeledSummary("fuzzyphase_request_duration_seconds",
		"Request latency in seconds, by endpoint (windowed quantiles over the most recent observations).", "endpoint")
	s.reg.Gauge("fuzzyphase_requests_in_flight",
		"Requests currently being served.",
		func() float64 { return float64(s.inFlight.Load()) })
	perClass := func(f func(l *limiter) float64) func() map[string]float64 {
		return func() map[string]float64 {
			return map[string]float64{"heavy": f(s.heavy), "light": f(s.light)}
		}
	}
	s.reg.LabeledCounterFunc("fuzzyphase_admission_queued",
		"Requests that waited in an admission queue before being served, by class.", "class",
		perClass(func(l *limiter) float64 { return float64(l.queuedTotal.Load()) }))
	s.reg.LabeledCounterFunc("fuzzyphase_admission_shed",
		"Requests shed with 429 because the class was saturated and its queue full, by class.", "class",
		perClass(func(l *limiter) float64 { return float64(l.shedTotal.Load()) }))
	s.reg.LabeledGauge("fuzzyphase_admission_queue_depth",
		"Requests currently waiting for an admission slot, by class.", "class",
		perClass(func(l *limiter) float64 { return float64(l.queued.Load()) }))
	s.reg.LabeledGauge("fuzzyphase_admission_in_flight",
		"Requests currently holding an admission slot, by class.", "class",
		perClass(func(l *limiter) float64 { return float64(l.inFlight.Load()) }))
	s.reg.LabeledGauge("fuzzyphase_admission_limit",
		"Configured concurrency limit per class (0 = unlimited).", "class",
		perClass(func(l *limiter) float64 { return float64(l.limit) }))
	s.uploads = s.reg.LabeledCounter("fuzzyphase_uploads_total",
		"External profiles accepted by POST /v1/analyze and /v1/quadrant, by wire encoding.", "encoding")
	s.uploadBytes = s.reg.Counter("fuzzyphase_upload_bytes_total",
		"Encoded bytes consumed from accepted profile uploads.")
	s.uploadRejects = s.reg.Counter("fuzzyphase_upload_rejects_total",
		"Profile uploads rejected before analysis (corrupt, oversized, or unsupported media type).")
	s.uploadRejectedBytes = s.reg.Counter("fuzzyphase_upload_rejected_bytes_total",
		"Encoded bytes consumed (decoded plus drained) from rejected profile uploads.")

	cache := func(f func(experiment.CacheStats) float64) func() float64 {
		return func() float64 { return f(experiment.AnalysisCacheStats()) }
	}
	s.reg.CounterFunc("fuzzyphase_analyze_cache_hits_total",
		"Analyze calls answered from a completed cached result.",
		cache(func(st experiment.CacheStats) float64 { return float64(st.Hits) }))
	s.reg.CounterFunc("fuzzyphase_analyze_cache_misses_total",
		"Analyze calls that started a fresh pipeline flight.",
		cache(func(st experiment.CacheStats) float64 { return float64(st.Misses) }))
	s.reg.CounterFunc("fuzzyphase_analyze_cache_shared_total",
		"Analyze calls that joined an in-flight computation (singleflight).",
		cache(func(st experiment.CacheStats) float64 { return float64(st.Shared) }))
	s.reg.CounterFunc("fuzzyphase_analyze_cache_evictions_total",
		"Completed results evicted by the LRU entry cap.",
		cache(func(st experiment.CacheStats) float64 { return float64(st.Evictions) }))
	s.reg.CounterFunc("fuzzyphase_analyze_cache_invalidations_total",
		"InvalidateAnalysisCache calls.",
		cache(func(st experiment.CacheStats) float64 { return float64(st.Invalidations) }))
	s.reg.Gauge("fuzzyphase_analyze_cache_entries",
		"Completed results currently retained.",
		cache(func(st experiment.CacheStats) float64 { return float64(st.Entries) }))
	s.reg.Gauge("fuzzyphase_analyze_cache_in_flight",
		"Pipeline computations currently running.",
		cache(func(st experiment.CacheStats) float64 { return float64(st.InFlight) }))
	s.reg.Gauge("fuzzyphase_analyze_cache_cost_bytes",
		"Approximate heap retained by cached results.",
		cache(func(st experiment.CacheStats) float64 { return float64(st.CostBytes) }))
	s.reg.Gauge("fuzzyphase_analyze_cache_entry_cap",
		"Configured cache entry cap (0 = unbounded).",
		cache(func(st experiment.CacheStats) float64 { return float64(st.CapEntries) }))
	store := func(f func(st profstore.Stats) float64) func() float64 {
		return func() float64 { return f(experiment.ProfileStoreStats()) }
	}
	s.reg.CounterFunc("fuzzyphase_profilestore_hits",
		"Profile collections served from the store's in-memory tier.",
		store(func(st profstore.Stats) float64 { return float64(st.MemHits) }))
	s.reg.CounterFunc("fuzzyphase_profilestore_disk_hits",
		"Profile collections decoded from the store's on-disk tier.",
		store(func(st profstore.Stats) float64 { return float64(st.DiskHits) }))
	s.reg.CounterFunc("fuzzyphase_profilestore_misses",
		"Profile collections that had to run the simulator.",
		store(func(st profstore.Stats) float64 { return float64(st.Misses) }))
	s.reg.CounterFunc("fuzzyphase_profilestore_writes",
		"Profile entries persisted to disk.",
		store(func(st profstore.Stats) float64 { return float64(st.Writes) }))
	s.reg.CounterFunc("fuzzyphase_profilestore_corruptions",
		"On-disk entries that failed validation and were recomputed.",
		store(func(st profstore.Stats) float64 { return float64(st.Corruptions) }))
	s.reg.CounterFunc("fuzzyphase_profilestore_bytes",
		"Total encoded bytes persisted to the profile store.",
		store(func(st profstore.Stats) float64 { return float64(st.BytesWritten) }))
	s.reg.Gauge("fuzzyphase_profilestore_entries",
		"Profile collections currently retained in memory.",
		store(func(st profstore.Stats) float64 { return float64(st.Entries) }))
	s.reg.Gauge("fuzzyphase_profilestore_mem_bytes",
		"Encoded bytes of the profile collections retained in memory.",
		store(func(st profstore.Stats) float64 { return float64(st.MemBytes) }))
	s.reg.CounterFunc("fuzzyphase_collect_mem_refs_dropped",
		"Memory references dropped by block-event truncation across all collections (workload truncation indicator).",
		func() float64 { return float64(profiler.MemRefsDroppedTotal()) })
	s.reg.Gauge("fuzzyphase_goroutines", "Live goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })

	s.routes()
	return s
}

func (s *Server) routes() {
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	s.mux.Handle("/metrics", s.reg.Handler())
	s.mux.Handle("/debug/vars", expvar.Handler())
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	// The API lives under /v1/ only; the operational endpoints above stay
	// unversioned, where probes and scrapers expect them.
	s.route(routeCfg{name: "workloads", class: classLight}, "/v1/workloads", s.handleWorkloads)
	s.route(routeCfg{name: "analyze", class: classHeavy, coalesce: s.analysisShareable("/v1/analyze/")},
		"/v1/analyze/", s.handleAnalyze)
	s.route(routeCfg{name: "explain", class: classHeavy, coalesce: s.analysisShareable("/v1/explain/")},
		"/v1/explain/", s.handleExplain)
	s.route(routeCfg{name: "table", class: classHeavy}, "/v1/table/", s.handleTable)
	s.route(routeCfg{name: "figure", class: classHeavy}, "/v1/figure/", s.handleFigure)
	s.route(routeCfg{name: "quadrants", class: classHeavy}, "/v1/quadrants", s.handleQuadrants)
	s.route(routeCfg{name: "cache", class: classLight}, "/v1/cache/stats", s.handleCacheStats)
	s.route(routeCfg{name: "cache", class: classLight, methods: []string{http.MethodPost}},
		"/v1/cache/invalidate", func(_ context.Context, r *http.Request, buf *bytes.Buffer) error {
			experiment.InvalidateAnalysisCache()
			s.cfg.Logf("cache invalidated by %s", r.RemoteAddr)
			fmt.Fprintln(buf, "invalidated")
			return nil
		})

	// External-profile ingestion (JSON-native: responses and errors are
	// JSON regardless of Accept). The exact "/v1/analyze" pattern
	// coexists with the "/v1/analyze/" prefix above: POST /v1/analyze
	// uploads a profile, GET /v1/analyze/{workload} analyzes a built-in one.
	s.route(routeCfg{name: "upload-analyze", class: classHeavy, methods: []string{http.MethodPost}, json: true},
		"/v1/analyze", s.handleUploadAnalyze)
	s.route(routeCfg{name: "upload-quadrant", class: classHeavy, methods: []string{http.MethodPost}, json: true},
		"/v1/quadrant", s.handleUploadQuadrant)
}

// Handler returns the root handler (exported for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// httpError carries a status code out of a handler. retryAfter, if
// nonzero, is rendered as a Retry-After header (whole seconds) — 429s use
// it to tell shed clients when to come back.
type httpError struct {
	code       int
	msg        string
	retryAfter int
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func notFound(format string, args ...any) error {
	return &httpError{code: http.StatusNotFound, msg: fmt.Sprintf(format, args...)}
}

// handler is an endpoint body: it renders a complete response into buf or
// returns an error (which discards buf).
type handler func(ctx context.Context, r *http.Request, buf *bytes.Buffer) error

// routeCfg describes one endpoint's transport behavior.
type routeCfg struct {
	name string
	// methods lists the allowed HTTP methods (nil = GET and HEAD). Other
	// methods get a 405 carrying an Allow header.
	methods []string
	// json marks JSON-native endpoints: the success Content-Type is
	// application/json and errors use the JSON envelope even when the
	// client sent no Accept header.
	json bool
	// class selects the admission-control budget this endpoint draws from
	// (see admission.go).
	class admitClass
	// coalesce, if non-nil, reports that this request's work is already
	// cached or in flight, in which case it bypasses admission: joining
	// existing work adds no simulator load, so it must not be queued or
	// shed behind requests that do.
	coalesce func(*http.Request) bool
}

// route wraps a handler with method filtering (405 + Allow), request
// accounting, admission control, the per-request timeout, buffered
// rendering, content-type negotiation for errors, and error
// classification. HEAD requests get the same headers as GET — including
// Content-Length when the handler rendered — with the body suppressed.
func (s *Server) route(cfg routeCfg, pattern string, h handler) {
	methods := cfg.methods
	if methods == nil {
		methods = []string{http.MethodGet, http.MethodHead}
	}
	allow := strings.Join(methods, ", ")
	contentType := "text/plain; charset=utf-8"
	if cfg.json {
		contentType = "application/json; charset=utf-8"
	}
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		// Every arrival is accounted — including method probes, which
		// used to return before the counters and the log line and were
		// therefore invisible in /metrics.
		s.requests(cfg.name).Inc()
		s.inFlight.Add(1)
		defer s.inFlight.Add(-1)
		start := time.Now()
		defer func() {
			s.latency(cfg.name).Observe(time.Since(start).Seconds())
		}()

		allowed := false
		for _, m := range methods {
			if r.Method == m {
				allowed = true
				break
			}
		}
		if !allowed {
			w.Header().Set("Allow", allow)
			s.errors(cfg.name).Inc()
			s.writeError(w, r, cfg.json, http.StatusMethodNotAllowed,
				fmt.Sprintf("method %s not allowed (allow: %s)", r.Method, allow))
			s.cfg.Logf("%s %s -> %d (%s)", r.Method, r.URL.RequestURI(),
				http.StatusMethodNotAllowed, time.Since(start).Round(time.Millisecond))
			return
		}

		ctx := r.Context()
		timeout, err := requestTimeout(r, s.cfg.RequestTimeout)
		if err == nil && timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, timeout)
			defer cancel()
		}
		if err == nil {
			// Admission: acquire a class slot unless the request coalesces
			// with work that is already cached or in flight. Queue waiting
			// respects the request deadline set above.
			if lim := s.limiterFor(cfg.class); lim != nil &&
				(cfg.coalesce == nil || !cfg.coalesce(r)) {
				var release func()
				release, err = lim.acquire(ctx, s.retryAfter)
				if err == nil {
					defer release()
				}
			}
		}
		var buf bytes.Buffer
		if err == nil {
			err = h(ctx, r, &buf)
		}

		code := http.StatusOK
		if err != nil {
			var he *httpError
			var shed *shedError
			switch {
			case errors.As(err, &shed):
				code = http.StatusTooManyRequests
				w.Header().Set("Retry-After", strconv.Itoa(shed.retryAfter))
			case errors.As(err, &he):
				code = he.code
				if he.retryAfter > 0 {
					w.Header().Set("Retry-After", strconv.Itoa(he.retryAfter))
				}
			case errors.Is(err, context.DeadlineExceeded):
				code = http.StatusGatewayTimeout
			case errors.Is(err, context.Canceled):
				// The client went away; nothing useful can be written.
				// 499 is nginx's convention for exactly this.
				code = 499
			default:
				code = http.StatusInternalServerError
			}
			s.errors(cfg.name).Inc()
			s.writeError(w, r, cfg.json, code, err.Error())
		} else {
			w.Header().Set("Content-Type", contentType)
			if r.Method == http.MethodHead {
				// Headers only. When the handler rendered (cheap endpoint,
				// or a warm analysis served from cache) the body length is
				// known exactly; a cold HEAD short-circuits with no length
				// rather than paying for a simulation whose bytes would be
				// discarded.
				if buf.Len() > 0 {
					w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
				}
			} else {
				_, _ = w.Write(buf.Bytes())
			}
		}
		s.cfg.Logf("%s %s -> %d (%s)", r.Method, r.URL.RequestURI(), code,
			time.Since(start).Round(time.Millisecond))
	})
}

// errorCode maps an HTTP status to the envelope's stable machine-readable
// code string.
func errorCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusTooManyRequests:
		return "over_capacity"
	case http.StatusRequestEntityTooLarge:
		return "payload_too_large"
	case http.StatusUnsupportedMediaType:
		return "unsupported_media_type"
	case 499:
		return "client_closed_request"
	case http.StatusGatewayTimeout:
		return "timeout"
	default:
		return "internal"
	}
}

// writeError renders an error response: the JSON envelope
// {"error":{"code","message"}} when the endpoint is JSON-native or the
// client's Accept header names application/json, otherwise the historical
// plain-text body.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, jsonNative bool, status int, msg string) {
	if jsonNative || strings.Contains(r.Header.Get("Accept"), "application/json") {
		body, _ := json.Marshal(map[string]any{
			"error": map[string]string{"code": errorCode(status), "message": msg},
		})
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.Header().Set("X-Content-Type-Options", "nosniff")
		w.WriteHeader(status)
		w.Write(append(body, '\n'))
		return
	}
	http.Error(w, msg, status)
}

// pathArg extracts the single path segment after prefix ("/v1/analyze/gzip"
// -> "gzip") and rejects empty or nested paths.
func pathArg(r *http.Request, prefix string) (string, error) {
	rest := strings.TrimPrefix(r.URL.Path, prefix)
	if rest == "" || strings.Contains(rest, "/") {
		return "", badRequest("expected %s{arg}, got %q", prefix, r.URL.Path)
	}
	return rest, nil
}

// resolveWorkload canonicalizes a workload path segment, accepting the
// "spec."-less shorthand for SPEC analogs (/v1/analyze/gzip ==
// /v1/analyze/spec.gzip).
func (s *Server) resolveWorkload(name string) (string, error) {
	if s.workloads[name] {
		return name, nil
	}
	if alias := "spec." + name; s.workloads[alias] {
		return alias, nil
	}
	return "", notFound("unknown workload %q (see /v1/workloads)", name)
}

func (s *Server) handleWorkloads(_ context.Context, _ *http.Request, buf *bytes.Buffer) error {
	for _, name := range fuzzyphase.Workloads() {
		fmt.Fprintln(buf, name)
	}
	return nil
}

// handleAnalyze serves GET /v1/analyze/{workload}: the same summary
// `fuzzyphase run {workload}` prints, byte for byte.
func (s *Server) handleAnalyze(ctx context.Context, r *http.Request, buf *bytes.Buffer) error {
	name, err := pathArg(r, "/v1/analyze/")
	if err != nil {
		return err
	}
	name, err = s.resolveWorkload(name)
	if err != nil {
		return err
	}
	opt, err := optionsFromQuery(s.cfg.Base, r.URL.Query())
	if err != nil {
		return err
	}
	if headUncached(r, name, opt) {
		return nil
	}
	res, err := experiment.AnalyzeCtx(ctx, name, opt)
	if err != nil {
		return err
	}
	buf.WriteString(experiment.Summary(res))
	return nil
}

// headUncached reports that r is a HEAD probe whose analysis is not
// already cached. Handlers short-circuit it after validating arguments:
// the probe gets its 200/404/400 and headers, but a health-checking load
// balancer can never trigger a cold simulation whose body would only be
// discarded. Warm probes fall through, render from cache in microseconds,
// and so carry an exact Content-Length.
func headUncached(r *http.Request, name string, opt experiment.Options) bool {
	return r.Method == http.MethodHead && !experiment.AnalysisCached(name, opt)
}

// handleExplain serves GET /v1/explain/{workload}: the `fuzzyphase explain`
// report.
func (s *Server) handleExplain(ctx context.Context, r *http.Request, buf *bytes.Buffer) error {
	name, err := pathArg(r, "/v1/explain/")
	if err != nil {
		return err
	}
	name, err = s.resolveWorkload(name)
	if err != nil {
		return err
	}
	opt, err := optionsFromQuery(s.cfg.Base, r.URL.Query())
	if err != nil {
		return err
	}
	if headUncached(r, name, opt) {
		return nil
	}
	res, err := experiment.AnalyzeCtx(ctx, name, opt)
	if err != nil {
		return err
	}
	experiment.RenderExplanation(buf, res, experiment.Explain(res))
	return nil
}

// handleTable serves GET /v1/table/{1|2}: `fuzzyphase table N` stdout.
func (s *Server) handleTable(ctx context.Context, r *http.Request, buf *bytes.Buffer) error {
	arg, err := pathArg(r, "/v1/table/")
	if err != nil {
		return err
	}
	id, err := strconv.Atoi(arg)
	if err != nil {
		return notFound("no table %q", arg)
	}
	if err := fuzzyphase.CheckTable(id); err != nil {
		return notFound("%v", err)
	}
	opt, err := optionsFromQuery(s.cfg.Base, r.URL.Query())
	if err != nil {
		return err
	}
	if r.Method == http.MethodHead {
		// Multi-workload renders never simulate for a HEAD probe; the
		// response carries headers only (no Content-Length, since the body
		// length is unknown without running the pipeline).
		return nil
	}
	return fuzzyphase.TableCtx(ctx, id, opt, buf, nil)
}

// handleFigure serves GET /v1/figure/{N}: `fuzzyphase figure N` stdout.
func (s *Server) handleFigure(ctx context.Context, r *http.Request, buf *bytes.Buffer) error {
	arg, err := pathArg(r, "/v1/figure/")
	if err != nil {
		return err
	}
	id, err := strconv.Atoi(arg)
	if err != nil {
		return notFound("no figure %q", arg)
	}
	if err := experiment.CheckFigure(id); err != nil {
		return notFound("%v", err)
	}
	opt, err := optionsFromQuery(s.cfg.Base, r.URL.Query())
	if err != nil {
		return err
	}
	if r.Method == http.MethodHead {
		return nil // see handleTable: HEAD never simulates
	}
	return fuzzyphase.FigureCtx(ctx, id, opt, buf)
}

// handleQuadrants serves GET /v1/quadrants: the §7 quadrant-space definition
// followed by the full-suite census under the request Options — the
// classification the paper's Table 2 footer summarizes.
func (s *Server) handleQuadrants(ctx context.Context, r *http.Request, buf *bytes.Buffer) error {
	opt, err := optionsFromQuery(s.cfg.Base, r.URL.Query())
	if err != nil {
		return err
	}
	if r.Method == http.MethodHead {
		return nil // see handleTable: HEAD never simulates
	}
	rows, err := experiment.Table2(ctx, opt, nil)
	if err != nil {
		return err
	}
	experiment.RenderFigure13(buf, experiment.Figure13())
	experiment.RenderQuadrantCensus(buf, rows)
	return nil
}

func (s *Server) handleCacheStats(_ context.Context, _ *http.Request, buf *bytes.Buffer) error {
	fmt.Fprintln(buf, experiment.AnalysisCacheStats())
	fmt.Fprintln(buf, experiment.ProfileStoreStats())
	return nil
}

// ListenAndServe runs the service until ctx is cancelled, then drains:
// in-flight responses get ShutdownGrace to complete before connections are
// forcibly closed. It returns nil on a clean drain.
func (s *Server) ListenAndServe(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.serve(ctx, ln)
}

func (s *Server) serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	s.cfg.Logf("serving on http://%s (cache cap %d entries)", ln.Addr(), s.cfg.CacheEntries)
	s.cfg.Logf("admission: heavy limit %d queue %d, light limit %d queue %d, retry-after %ds",
		s.heavy.limit, s.heavy.queueCap, s.light.limit, s.light.queueCap, s.retryAfter)
	if s.cfg.ProfileDir != "" {
		s.cfg.Logf("profile store: persistent tier at %s", s.cfg.ProfileDir)
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	s.cfg.Logf("shutting down: draining connections (grace %s)", s.cfg.ShutdownGrace)
	sctx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownGrace)
	defer cancel()
	err := srv.Shutdown(sctx)
	if err != nil {
		// Grace expired with connections still open: force them closed.
		_ = srv.Close()
	}
	<-errc // srv.Serve has returned http.ErrServerClosed
	s.cfg.Logf("shutdown complete (%s; %s)",
		experiment.AnalysisCacheStats(), experiment.ProfileStoreStats())
	return err
}
