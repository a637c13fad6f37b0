// Package flight is the one memoizing singleflight cache under both of
// fuzzyphase's caches: the experiment package's Analyze cache and the
// profile store's memory tier. A Cache[V] maps string keys to values
// computed at most once per key, deduplicating concurrent callers onto one
// flight and retaining completed values on a bounded LRU.
//
// Invariants, each locked by a test in flight_test.go:
//
//  1. Flights outlive individual callers. A flight runs on its own
//     context, detached from every caller. A waiter whose context expires
//     detaches alone; the flight is cancelled only when its last waiter
//     has gone, so one impatient caller can never abort work another is
//     still waiting on.
//  2. Failures and aborts are never retained. A failed flight's entry is
//     deleted before its done channel closes, under the same mutex that
//     admits waiters, so a hit is only ever counted against a completed,
//     retained value and the next caller retries with a fresh flight.
//  3. Doomed flights are replaced, not joined. A slot whose flight was
//     aborted by waiter abandonment is marked; the next caller starts a
//     fresh flight instead of inheriting a certain cancellation error.
//  4. Retention is bounded. Completed values live on an LRU capped by
//     SetCap (0, the default, is unbounded), each carrying the cost the
//     cache's cost function assigns it. In-flight computations are never
//     evicted, and Clear drops retained values without hiding running
//     flights from Stats.
//
// Values are shared between callers and must be treated as immutable.
package flight

import (
	"container/list"
	"context"
	"sync"
)

// Stats is a snapshot of a Cache's counters.
type Stats struct {
	// Hits counts Gets answered from a completed, retained value.
	Hits uint64
	// Shared counts Gets that joined another caller's running flight.
	Shared uint64
	// Starts counts flights started (every Get that was neither a hit nor
	// shared).
	Starts uint64
	// Evictions counts retained values dropped by the entry cap.
	Evictions uint64
	// Entries is the number of completed values retained.
	Entries int
	// InFlight is the number of flights started and not yet finished,
	// including flights whose slot a Clear has since dropped.
	InFlight int
	// Cost sums the cost function over retained values.
	Cost int64
	// Cap is the entry cap (0 = unbounded).
	Cap int
}

// call is one cache slot: done is closed when the flight finishes, after
// which val/err are immutable. The other fields are guarded by the owning
// cache's mutex.
type call[V any] struct {
	key  string
	done chan struct{}
	val  V
	err  error
	cost int64

	// waiters counts callers blocked on done; when the last one detaches
	// before completion the flight's context is cancelled and aborted set,
	// so later callers replace the slot instead of joining a doomed flight.
	waiters int
	aborted bool
	cancel  context.CancelFunc
	// elem is the slot's LRU node while retained, nil otherwise.
	elem *list.Element
}

// Cache is a context-aware singleflight over a bounded LRU. The zero
// value is not usable; call New.
type Cache[V any] struct {
	costOf func(V) int64

	mu       sync.Mutex
	entries  map[string]*call[V]
	lru      *list.List // retained calls; front = most recently used
	cap      int        // max retained entries; 0 = unbounded
	cost     int64      // summed cost of retained entries
	inFlight int

	hits, shared, starts, evictions uint64
}

// New returns an empty, unbounded cache. cost, if non-nil, assigns each
// retained value the cost reported by Stats.Cost.
func New[V any](cost func(V) int64) *Cache[V] {
	return &Cache[V]{costOf: cost, entries: map[string]*call[V]{}, lru: list.New()}
}

// Get returns the value for key, computing it with fn on a miss. fn runs
// on a flight-owned context that is cancelled only when every waiter has
// detached; concurrent Gets for one key share one flight. Errors are
// returned to every waiter of the failing flight but never retained. A
// caller whose ctx expires gets ctx.Err(); a ctx that is already done
// never touches the cache.
func (c *Cache[V]) Get(ctx context.Context, key string, fn func(context.Context) (V, error)) (V, error) {
	var zero V
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return zero, err
	}

	c.mu.Lock()
	if cl, ok := c.entries[key]; ok {
		select {
		case <-cl.done:
			// done only closes after a failed flight left the map, so a
			// completed slot found here is a retained success.
			c.hits++
			c.lru.MoveToFront(cl.elem)
			c.mu.Unlock()
			return cl.val, cl.err
		default:
			if !cl.aborted {
				c.shared++
				cl.waiters++
				c.mu.Unlock()
				return c.wait(ctx, cl)
			}
			// Doomed flight: replace it. Its finish leaves the map alone
			// because the slot no longer points at it.
		}
	}
	fctx, cancel := context.WithCancel(context.Background())
	cl := &call[V]{key: key, done: make(chan struct{}), waiters: 1, cancel: cancel}
	c.entries[key] = cl
	c.starts++
	c.inFlight++
	c.mu.Unlock()

	go func() {
		val, err := fn(fctx)
		c.finish(cl, val, err)
	}()
	return c.wait(ctx, cl)
}

// wait blocks until cl completes or ctx expires. An expired waiter
// detaches; the last waiter to detach aborts the flight.
func (c *Cache[V]) wait(ctx context.Context, cl *call[V]) (V, error) {
	select {
	case <-cl.done:
		return cl.val, cl.err
	case <-ctx.Done():
		c.mu.Lock()
		defer c.mu.Unlock()
		select {
		case <-cl.done:
			// Completed while we were cancelling: serve it anyway.
			return cl.val, cl.err
		default:
		}
		cl.waiters--
		if cl.waiters == 0 {
			cl.aborted = true
			cl.cancel()
		}
		var zero V
		return zero, ctx.Err()
	}
}

// finish publishes a flight's outcome: a success still owning its slot is
// retained, a failure is removed, both before done closes.
func (c *Cache[V]) finish(cl *call[V], val V, err error) {
	cl.val, cl.err = val, err
	if err == nil && c.costOf != nil {
		cl.cost = c.costOf(val)
	}
	c.mu.Lock()
	c.inFlight--
	if c.entries[cl.key] == cl {
		if err == nil {
			cl.elem = c.lru.PushFront(cl)
			c.cost += cl.cost
			c.evictLocked()
		} else {
			delete(c.entries, cl.key)
		}
	}
	close(cl.done)
	c.mu.Unlock()
	cl.cancel() // release the flight context
}

// evictLocked trims the LRU to the cap. Caller holds c.mu.
func (c *Cache[V]) evictLocked() {
	for c.cap > 0 && c.lru.Len() > c.cap {
		victim := c.lru.Remove(c.lru.Back()).(*call[V])
		victim.elem = nil
		c.cost -= victim.cost
		delete(c.entries, victim.key)
		c.evictions++
	}
}

// Available reports whether a Get of key would be answered without
// starting a flight: from a completed retained value, or (unless
// completedOnly) by joining a running flight that is not doomed. The
// answer is advisory — the slot can complete, fail or be evicted right
// after — so use it for scheduling, never correctness.
func (c *Cache[V]) Available(key string, completedOnly bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	cl, ok := c.entries[key]
	if !ok {
		return false
	}
	select {
	case <-cl.done:
		return true
	default:
		return !completedOnly && !cl.aborted
	}
}

// SetCap bounds retention to n completed entries (n <= 0 removes the
// bound), evicting least-recently-used values at once if over it, and
// returns the previous cap.
func (c *Cache[V]) SetCap(n int) int {
	if n < 0 {
		n = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	prev := c.cap
	c.cap = n
	c.evictLocked()
	return prev
}

// Clear drops every retained value and every slot. Running flights finish
// for their current waiters but are not retained; they stay counted in
// Stats.InFlight until they do. Counters are not reset.
func (c *Cache[V]) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = map[string]*call[V]{}
	c.lru = list.New()
	c.cost = 0
}

// Stats returns a snapshot of the counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Shared:    c.shared,
		Starts:    c.starts,
		Evictions: c.evictions,
		Entries:   c.lru.Len(),
		InFlight:  c.inFlight,
		Cost:      c.cost,
		Cap:       c.cap,
	}
}
