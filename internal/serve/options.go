package serve

import (
	"net/http"
	"net/url"
	"time"

	"repro/internal/experiment"
	"repro/internal/optcodec"
)

// optionsFromQuery overlays query parameters onto the configured base
// Options via the canonical optcodec field table — the same table that
// registers the CLI flags, so the HTTP parameter surface can never drift
// from the command line. Every parameter is optional; an unparseable or
// unknown value is a 400, and unrecognized parameter names are rejected
// too, so a typo (?intervalls=60) cannot silently run the full-length
// default pipeline.
//
// Supported parameters are exactly the field table's query names plus
//
//	timeout (Go duration; handled by requestTimeout, accepted here).
func optionsFromQuery(base experiment.Options, q url.Values) (experiment.Options, error) {
	opt, err := optcodec.FromQuery(base, q, map[string]bool{"timeout": true})
	if err != nil {
		return opt, badRequest("%s", err)
	}
	return opt, nil
}

// requestTimeout resolves the effective deadline for a request: the
// server-wide cap, which ?timeout= may lower but never raise (a client
// cannot opt out of the operator's bound).
func requestTimeout(r *http.Request, max time.Duration) (time.Duration, error) {
	raw := r.URL.Query().Get("timeout")
	if raw == "" {
		return max, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil || d <= 0 {
		return 0, badRequest("parameter timeout: %q is not a positive duration", raw)
	}
	if max > 0 && d > max {
		return max, nil
	}
	return d, nil
}
