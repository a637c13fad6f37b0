package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/profilefmt"
	"repro/internal/workload"
)

func post(t *testing.T, url, contentType string, body []byte) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
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

// TestUploadRoundTrip is the ingestion byte-identity criterion: exporting
// a built-in workload's EIPVs and uploading them through POST /v1/analyze
// must reproduce the native analysis exactly — same RE curve, same
// quadrant, bit for bit — in both wire encodings, and the second encoding
// must hit the same cache entry.
func TestUploadRoundTrip(t *testing.T) {
	ts := newTestServer(t, Config{})

	opt := experiment.Options{Intervals: 60, Warmup: 6, Seed: 1}
	res, err := experiment.AnalyzeCtx(context.Background(), "spec.gzip", opt)
	if err != nil {
		t.Fatal(err)
	}
	p := profilefmt.FromSet(res.Set, "itanium2", workload.IntervalInsts)

	var jbuf bytes.Buffer
	if err := profilefmt.EncodeJSON(&jbuf, p); err != nil {
		t.Fatal(err)
	}
	bin := profilefmt.EncodeBinary(p)

	before := experiment.AnalysisCacheStats()
	code, jsonBody, hdr := post(t, ts.URL+"/v1/analyze?seed=1", "application/json", jbuf.Bytes())
	if code != http.StatusOK {
		t.Fatalf("JSON upload: %d (%s)", code, strings.TrimSpace(jsonBody))
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}

	var got experiment.Report
	if err := json.Unmarshal([]byte(jsonBody), &got); err != nil {
		t.Fatal(err)
	}
	want := experiment.NewReport(res)
	// The uploaded profile is labeled by its own Name (the set's short
	// workload name); everything else must match the native report bit for
	// bit.
	want.Name = p.Name
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("uploaded analysis diverges from native:\n got %+v\nwant %+v", got, want)
	}

	// Binary upload of the same profile: identical bytes, served from the
	// same cache entry (content-hash key is encoding-independent).
	code, binBody, _ := post(t, ts.URL+"/v1/analyze?seed=1", "application/octet-stream", bin)
	if code != http.StatusOK {
		t.Fatalf("binary upload: %d (%s)", code, strings.TrimSpace(binBody))
	}
	if binBody != jsonBody {
		t.Fatal("binary upload body differs from JSON upload body")
	}
	after := experiment.AnalysisCacheStats()
	if after.Hits <= before.Hits {
		t.Errorf("second upload did not hit the cache: hits %d -> %d", before.Hits, after.Hits)
	}

	// /v1/quadrant returns the compact classification, consistent with the
	// full report.
	code, qBody, _ := post(t, ts.URL+"/v1/quadrant?seed=1", "application/json", jbuf.Bytes())
	if code != http.StatusOK {
		t.Fatalf("quadrant upload: %d (%s)", code, strings.TrimSpace(qBody))
	}
	var q experiment.QuadrantReport
	if err := json.Unmarshal([]byte(qBody), &q); err != nil {
		t.Fatal(err)
	}
	if q.Quadrant != want.Quadrant || q.REOpt != want.REOpt || q.KOpt != want.KOpt {
		t.Fatalf("quadrant report inconsistent with full report: %+v vs %+v", q, want)
	}

	// Auto-detection: no Content-Type at all still decodes.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/analyze?seed=1", bytes.NewReader(bin))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	sniffed, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(sniffed) != jsonBody {
		t.Fatalf("sniffed upload: %d, match %v", resp.StatusCode, string(sniffed) == jsonBody)
	}
}

// jsonError decodes the error envelope and returns its code field.
func jsonError(t *testing.T, body string) string {
	t.Helper()
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal([]byte(body), &env); err != nil {
		t.Fatalf("error body is not the JSON envelope: %q (%v)", body, err)
	}
	if env.Error.Message == "" {
		t.Fatalf("envelope has no message: %q", body)
	}
	return env.Error.Code
}

// TestUploadRejections: corrupt, oversized, and mistyped uploads must be
// rejected with structured JSON 4xx envelopes — and the server keeps
// serving afterwards.
func TestUploadRejections(t *testing.T) {
	ts := newTestServer(t, Config{})

	p := &profilefmt.Profile{
		Name:          "tiny",
		IntervalInsts: 1000,
		Rows: []profilefmt.Row{
			{CPI: 1, EIPs: []uint64{1}, Counts: []int64{1}},
			{CPI: 2, EIPs: []uint64{2}, Counts: []int64{1}},
		},
	}
	bin := profilefmt.EncodeBinary(p)

	// Garbage body.
	code, body, _ := post(t, ts.URL+"/v1/analyze", "application/json", []byte("not json at all"))
	if code != http.StatusBadRequest || jsonError(t, body) != "bad_request" {
		t.Errorf("garbage: %d %q", code, body)
	}
	// Truncated binary.
	code, body, _ = post(t, ts.URL+"/v1/analyze", "application/octet-stream", bin[:len(bin)-3])
	if code != http.StatusBadRequest || jsonError(t, body) != "bad_request" {
		t.Errorf("truncated: %d %q", code, body)
	}
	// Unsupported media type.
	code, body, _ = post(t, ts.URL+"/v1/analyze", "text/csv", bin)
	if code != http.StatusUnsupportedMediaType || jsonError(t, body) != "unsupported_media_type" {
		t.Errorf("mistyped: %d %q", code, body)
	}
	// Valid but too few rows for cross-validation: a 400, not a 500.
	code, body, _ = post(t, ts.URL+"/v1/analyze", "application/octet-stream", bin)
	if code != http.StatusBadRequest || jsonError(t, body) != "bad_request" {
		t.Errorf("too few rows: %d %q", code, body)
	}
	// Oversized: shrink the server-side byte bound, then restore it.
	defer func(old profilefmt.Limits) { uploadLimits = old }(uploadLimits)
	uploadLimits = profilefmt.Limits{MaxBytes: 16}
	code, body, _ = post(t, ts.URL+"/v1/analyze", "application/octet-stream", bin)
	if code != http.StatusRequestEntityTooLarge || jsonError(t, body) != "payload_too_large" {
		t.Errorf("oversized: %d %q", code, body)
	}
	uploadLimits = profilefmt.DefaultLimits

	// The server still answers normal traffic.
	if code, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("server wedged after rejections: /healthz = %d", code)
	}

	// Rejections were counted.
	_, metricsBody := get(t, ts.URL+"/metrics")
	if !strings.Contains(metricsBody, "fuzzyphase_upload_rejects_total") {
		t.Error("/metrics missing fuzzyphase_upload_rejects_total")
	}
}

// TestRejectedUploadKeepsConnectionAlive is the keep-alive regression
// test: a rejected upload used to leave the request body unread, and any
// body larger than the HTTP server's small auto-drain allowance (256 KiB)
// forced the connection closed — every reject from a well-behaved client
// cost a reconnect. The server now drains a bounded remainder, so the same
// connection serves the next request, and the drained bytes are accounted.
func TestRejectedUploadKeepsConnectionAlive(t *testing.T) {
	ts := newTestServer(t, Config{})

	// One dedicated connection so reuse is observable.
	tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}

	// Big enough that Go's auto-drain gives up, small enough to stay well
	// under the server's 1 MiB reject-drain bound.
	garbage := bytes.Repeat([]byte("x"), 512<<10)

	do := func(req *http.Request) (*http.Response, bool) {
		t.Helper()
		reused := false
		trace := &httptrace.ClientTrace{
			GotConn: func(info httptrace.GotConnInfo) { reused = info.Reused },
		}
		resp, err := client.Do(req.WithContext(httptrace.WithClientTrace(req.Context(), trace)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp, reused
	}

	// Reject #1: unsupported media type with a large unread body.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/analyze", bytes.NewReader(garbage))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/csv")
	resp, _ := do(req)
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("mistyped big upload = %d, want 415", resp.StatusCode)
	}

	// The next request must ride the same connection.
	req, err = http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, reused := do(req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz after reject = %d", resp.StatusCode)
	}
	if !reused {
		t.Fatal("connection was not reused after a rejected upload (body left undrained)")
	}

	// Reject #2: a decode failure partway through a large garbage body —
	// same guarantee.
	req, err = http.NewRequest(http.MethodPost, ts.URL+"/v1/analyze", bytes.NewReader(garbage))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, _ = do(req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage big upload = %d, want 400", resp.StatusCode)
	}
	req, err = http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, reused = do(req); !reused {
		t.Fatal("connection was not reused after a decode-failure reject")
	}

	// Every rejected byte (decoded + drained) is on the books.
	_, metricsBody := get(t, ts.URL+"/metrics")
	var rejected float64
	for _, line := range strings.Split(metricsBody, "\n") {
		if v, ok := strings.CutPrefix(line, "fuzzyphase_upload_rejected_bytes_total "); ok {
			fmt.Sscanf(v, "%g", &rejected)
		}
	}
	if rejected < float64(2*len(garbage)) {
		t.Errorf("fuzzyphase_upload_rejected_bytes_total = %g, want >= %d", rejected, 2*len(garbage))
	}
}

// TestV1OnlyRoutes: the API answers under /v1/ only, and an unprefixed
// API path is a 404; the operational endpoints answer at the root only.
func TestV1OnlyRoutes(t *testing.T) {
	ts := newTestServer(t, Config{})

	for _, path := range []string{"/workloads", "/analyze/spec.gzip?" + fastQuery, "/table/1", "/figure/13", "/cache/stats"} {
		if code, _ := get(t, ts.URL+"/v1"+path); code != http.StatusOK {
			t.Errorf("GET /v1%s = %d, want 200", path, code)
		}
	}
	for _, path := range []string{
		"/workloads", "/analyze/spec.gzip?" + fastQuery, "/explain/spec.gzip?" + fastQuery,
		"/table/1", "/figure/13", "/quadrants", "/cache/stats",
	} {
		if code, _ := get(t, ts.URL+path); code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, code)
		}
	}
	for _, path := range []string{"/analyze", "/quadrant", "/cache/invalidate"} {
		if code, _, _ := post(t, ts.URL+path, "application/json", []byte("{}")); code != http.StatusNotFound {
			t.Errorf("POST %s = %d, want 404", path, code)
		}
	}
	for _, path := range []string{"/healthz", "/metrics", "/debug/pprof/cmdline"} {
		if code, _ := get(t, ts.URL+path); code != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, code)
		}
		if code, _ := get(t, ts.URL+"/v1"+path); code != http.StatusNotFound {
			t.Errorf("GET /v1%s = %d, want 404", path, code)
		}
	}
}

// TestMethodNotAllowedCarriesAllow: every 405 names the allowed methods.
func TestMethodNotAllowedCarriesAllow(t *testing.T) {
	ts := newTestServer(t, Config{})

	cases := []struct {
		method, path, allow string
	}{
		{http.MethodPost, "/v1/workloads", "GET, HEAD"},
		{http.MethodPost, "/v1/analyze/spec.gzip", "GET, HEAD"},
		{http.MethodGet, "/v1/cache/invalidate", "POST"},
		{http.MethodDelete, "/v1/analyze", "POST"},
		{http.MethodGet, "/v1/quadrant", "POST"},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, nil)
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
			t.Errorf("%s %s = %d, want 405", tc.method, tc.path, resp.StatusCode)
			continue
		}
		if got := resp.Header.Get("Allow"); got != tc.allow {
			t.Errorf("%s %s Allow = %q, want %q", tc.method, tc.path, got, tc.allow)
		}
	}
}

// TestJSONErrorNegotiation: text endpoints keep plain-text errors by
// default but honor Accept: application/json with the envelope.
func TestJSONErrorNegotiation(t *testing.T) {
	ts := newTestServer(t, Config{})

	// Default: plain text, as always.
	code, body := get(t, ts.URL+"/v1/analyze/not-a-workload?"+fastQuery)
	if code != http.StatusNotFound || strings.HasPrefix(body, "{") {
		t.Fatalf("plain-text error changed: %d %q", code, body)
	}

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/analyze/not-a-workload?"+fastQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if jsonError(t, string(b)) != "not_found" {
		t.Fatalf("envelope code = %q, want not_found (%s)", jsonError(t, string(b)), b)
	}
}
