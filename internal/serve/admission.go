// Admission control: per-endpoint-class concurrency limits with a
// bounded wait queue in front of each class.
//
// Endpoints are split into two classes with separate budgets:
//
//   - heavy: simulation-backed work (analyze, explain, table, figure,
//     quadrants, profile uploads). A cold request here costs hundreds of
//     milliseconds to minutes of simulator time, so unbounded concurrency
//     under a storm piles work onto the simulator long past the point
//     where any request can meet its deadline.
//   - light: cheap cached reads (workloads, cache stats, invalidate).
//     These finish in microseconds; their budget exists only so a flood
//     of them cannot starve the Go scheduler while heavy work drains.
//
// Each class admits up to Limit requests concurrently; the next Queue
// requests wait (respecting their request context/deadline); anything
// beyond that is shed *immediately* with 429 + Retry-After rather than
// queued — the shed-before-queue-overflow invariant. A queue that only
// grows converts overload into universal timeout; a bounded queue plus
// immediate shedding keeps the served requests fast and tells the rest
// exactly when to come back.
//
// Requests whose underlying analysis is already cached or in flight
// bypass the heavy budget entirely (see routeCfg.coalesce): joining an
// existing flight adds no simulator load, so shedding it would only
// forfeit work the server is already doing.
package serve

import (
	"context"
	"net/http"
	"sync/atomic"

	"repro/internal/experiment"
)

// limiter is one admission class: a concurrency semaphore with a bounded
// wait queue in front of it. The zero value is not usable; use newLimiter.
type limiter struct {
	class    string // "heavy" or "light", for metrics and errors
	limit    int    // concurrent admissions; <= 0 means unlimited
	queueCap int    // waiters beyond limit before shedding; < 0 means none

	sem      chan struct{}
	inFlight atomic.Int64
	queued   atomic.Int64

	// Monotonic counters for /metrics.
	queuedTotal atomic.Uint64
	shedTotal   atomic.Uint64
}

func newLimiter(class string, limit, queueCap int) *limiter {
	l := &limiter{class: class, limit: limit, queueCap: queueCap}
	if limit > 0 {
		l.sem = make(chan struct{}, limit)
	}
	return l
}

// errShed is returned by acquire when the class is saturated and its queue
// full. route maps it to 429 + Retry-After.
type shedError struct {
	class      string
	retryAfter int // seconds, for the Retry-After header
}

func (e *shedError) Error() string {
	return "server overloaded: " + e.class + " admission queue full, retry later"
}

// acquire admits the caller, queues it (bounded, context-aware), or sheds
// it. On success the returned release func MUST be called exactly once
// when the request finishes. retryAfter seeds the shed error's
// Retry-After advice.
func (l *limiter) acquire(ctx context.Context, retryAfter int) (release func(), err error) {
	if l.limit <= 0 {
		l.inFlight.Add(1)
		return func() { l.inFlight.Add(-1) }, nil
	}
	select {
	case l.sem <- struct{}{}:
		l.inFlight.Add(1)
		return l.release, nil
	default:
	}
	// Saturated: take a queue ticket or shed immediately. The CAS loop
	// guarantees the queue-depth gauge can never exceed queueCap, even
	// under concurrent arrivals.
	for {
		q := l.queued.Load()
		if q >= int64(l.queueCap) {
			l.shedTotal.Add(1)
			return nil, &shedError{class: l.class, retryAfter: retryAfter}
		}
		if l.queued.CompareAndSwap(q, q+1) {
			break
		}
	}
	l.queuedTotal.Add(1)
	defer l.queued.Add(-1)
	select {
	case l.sem <- struct{}{}:
		l.inFlight.Add(1)
		return l.release, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (l *limiter) release() {
	l.inFlight.Add(-1)
	<-l.sem
}

// admitClass names a routeCfg's admission class.
type admitClass int

const (
	classNone  admitClass = iota // never limited (healthz, metrics, debug)
	classLight                   // cheap cached reads
	classHeavy                   // simulation-backed endpoints
)

// limiterFor maps a class to its limiter (nil for classNone).
func (s *Server) limiterFor(c admitClass) *limiter {
	switch c {
	case classLight:
		return s.light
	case classHeavy:
		return s.heavy
	}
	return nil
}

// analysisShareable builds a coalescing probe for single-workload GET
// endpoints (/v1/analyze/{w}, /v1/explain/{w}): true when the request's
// exact analysis is already completed or in flight, so admitting it adds no
// simulator load — it will be a cache hit or join the existing flight
// (singleflight). Any parse failure answers false and lets the normal
// admission + handler path produce the 400/404.
func (s *Server) analysisShareable(prefix string) func(*http.Request) bool {
	return func(r *http.Request) bool {
		name, err := pathArg(r, prefix)
		if err != nil {
			return false
		}
		name, err = s.resolveWorkload(name)
		if err != nil {
			return false
		}
		opt, err := optionsFromQuery(s.cfg.Base, r.URL.Query())
		if err != nil {
			return false
		}
		return experiment.AnalysisShareable(name, opt)
	}
}
