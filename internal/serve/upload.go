// External-profile ingestion endpoints: POST /v1/analyze and
// POST /v1/quadrant accept a profilefmt EIPV profile in the request body
// and run the workload-agnostic analysis on it — the exact computation
// GET /v1/analyze/{workload} performs after EIPV construction, so a profile
// exported from a built-in workload reproduces its results bit for bit
// (upload_test locks this).
//
// The wire encoding is negotiated by Content-Type:
//
//	application/json                  the profilefmt JSON envelope
//	application/octet-stream          the profilefmt binary format
//	application/x-fuzzyphase-eipv     same as octet-stream
//	(absent)                          auto-detected from the first bytes
//
// Anything else is a 415. Decoding is streaming against
// profilefmt.DefaultLimits, so an oversized or corrupt body is rejected
// with a structured 4xx — 413 for limit violations, 400 for damage —
// after reading at most MaxBytes+1 bytes, and can never wedge the server.
// Results are cached in the process-wide Analyze LRU under the profile's
// content hash, so re-uploading the same profile (in either encoding) is
// a cache hit.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"

	"repro/internal/experiment"
	"repro/internal/profilefmt"
)

// uploadLimits bounds every profile upload. Separate from
// profilefmt.DefaultLimits only in name: serve currently adopts the
// package defaults verbatim (documented in DESIGN.md §5).
var uploadLimits = profilefmt.DefaultLimits

// rejectDrainLimit bounds how much of a rejected upload's unread body the
// server will consume before answering, so the keep-alive connection can
// be reused instead of torn down (Go's HTTP server closes the connection
// when a handler leaves more unread than its own small auto-drain
// allowance). A reject that still has more than this buffered is hopeless
// — reading megabytes to save a reconnect is a worse trade — and the
// connection closes as before.
const rejectDrainLimit = 1 << 20

// countingReader counts consumed bytes for the upload-bytes metric.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// drainRejected consumes a bounded remainder of a rejected upload's body
// and accounts every byte the reject cost (decoded + drained) to the
// rejected-bytes counter. consumed is what the decoder read before
// rejecting.
func (s *Server) drainRejected(r *http.Request, consumed int64) {
	n, _ := io.Copy(io.Discard, io.LimitReader(r.Body, rejectDrainLimit))
	s.uploadRejects.Inc()
	s.uploadRejectedBytes.Add(uint64(consumed + n))
}

// decodeUpload reads and decodes the request body per Content-Type,
// returning the validated profile and its content key
// (profilefmt.ContentKey, identical for JSON and binary uploads of the
// same profile, so both share one cache entry).
func (s *Server) decodeUpload(r *http.Request) (*profilefmt.Profile, string, error) {
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i] // drop parameters (charset=...)
	}
	ct = strings.ToLower(strings.TrimSpace(ct))

	// Hard-stop the body one slack block past the decode limit: the
	// streaming decoders read at most MaxBytes+1 bytes themselves, so a
	// well-behaved decode never trips the wrapper, but nothing a client
	// sends can make the server read without bound.
	lim := uploadLimits.WithDefaults()
	r.Body = http.MaxBytesReader(nil, r.Body, lim.MaxBytes+(64<<10))

	cr := &countingReader{r: r.Body}
	var (
		p    *profilefmt.Profile
		kind profilefmt.Kind
		err  error
	)
	switch ct {
	case "application/json":
		kind = profilefmt.KindJSON
		p, err = profilefmt.DecodeJSON(cr, uploadLimits)
	case "application/octet-stream", "application/x-fuzzyphase-eipv":
		kind = profilefmt.KindBinary
		p, err = profilefmt.DecodeBinary(cr, uploadLimits)
	case "":
		p, kind, err = profilefmt.Decode(cr, uploadLimits)
	default:
		s.drainRejected(r, cr.n)
		return nil, "", &httpError{code: http.StatusUnsupportedMediaType,
			msg: "unsupported Content-Type " + ct + " (want application/json, application/octet-stream, or application/x-fuzzyphase-eipv)"}
	}
	if err != nil {
		s.drainRejected(r, cr.n)
		return nil, "", profileHTTPError(err)
	}
	s.uploads(kind.String()).Inc()
	s.uploadBytes.Add(uint64(cr.n))

	return p, profilefmt.ContentKey(p), nil
}

// profileHTTPError maps profilefmt's sentinel errors onto structured HTTP
// statuses: limit violations are 413, everything else the client sent
// wrong is a 400.
func profileHTTPError(err error) error {
	var mbe *http.MaxBytesError
	switch {
	case errors.Is(err, profilefmt.ErrTooLarge), errors.As(err, &mbe):
		return &httpError{code: http.StatusRequestEntityTooLarge, msg: err.Error()}
	case errors.Is(err, profilefmt.ErrCorrupt),
		errors.Is(err, profilefmt.ErrInvalid),
		errors.Is(err, profilefmt.ErrUnsupportedVersion):
		return &httpError{code: http.StatusBadRequest, msg: err.Error()}
	}
	return err
}

// handleUploadAnalyze serves POST /v1/analyze: decode, analyze, and
// return the full experiment.Report (RE curve, quadrant, recommendation)
// as JSON.
func (s *Server) handleUploadAnalyze(ctx context.Context, r *http.Request, buf *bytes.Buffer) error {
	opt, err := optionsFromQuery(s.cfg.Base, r.URL.Query())
	if err != nil {
		return err
	}
	res, err := s.analyzeUpload(ctx, r, opt)
	if err != nil {
		return err
	}
	return json.NewEncoder(buf).Encode(experiment.NewReport(res))
}

// handleUploadQuadrant serves POST /v1/quadrant: the compact
// classification-only report.
func (s *Server) handleUploadQuadrant(ctx context.Context, r *http.Request, buf *bytes.Buffer) error {
	opt, err := optionsFromQuery(s.cfg.Base, r.URL.Query())
	if err != nil {
		return err
	}
	res, err := s.analyzeUpload(ctx, r, opt)
	if err != nil {
		return err
	}
	return json.NewEncoder(buf).Encode(experiment.NewQuadrantReport(res))
}

func (s *Server) analyzeUpload(ctx context.Context, r *http.Request, opt experiment.Options) (*experiment.Result, error) {
	p, key, err := s.decodeUpload(r)
	if err != nil {
		return nil, err
	}
	res, err := experiment.AnalyzeProfileCtx(ctx, key, p, opt)
	if err != nil {
		return nil, profileHTTPError(err) // too-few-rows wraps ErrInvalid -> 400
	}
	return res, nil
}
