// Process-wide plan cache. Plan construction is O(n^2); the experiment
// pipelines and repeated Fit/Generate calls keep asking for the same
// (ACF model, length) plans. The cache is keyed by a fingerprint of the
// *evaluated* autocorrelation table — not the model value — so any two
// models that agree on the first n lags share a plan, and models carrying
// slices or closures need no comparability. Every Get pays one O(n) table
// evaluation, small beside the O(n^2) build a hit saves. Concurrent
// requests for the same plan are single-flighted: one goroutine builds, the
// rest wait.
//
// Because a hash key can collide, every hit is verified: the cached plan's
// autocorrelation table must match the requested model bitwise, otherwise
// the request falls through to a direct build (bypassing the cache).
package hosking

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"sync"

	"vbrsim/internal/acf"
	"vbrsim/internal/obs"
)

// DefaultCacheCap is the eviction cap of the shared cache: the number of
// distinct (model, length) plans kept in memory.
const DefaultCacheCap = 16

// Shared is the process-wide plan cache used by CachedPlan and, through it,
// by core.Model and the experiment pipelines.
var Shared = NewPlanCache(DefaultCacheCap)

// CachedPlan returns a plan for (model, n) from the shared process-wide
// cache, building and inserting it on a miss.
func CachedPlan(model acf.Model, n int) (*Plan, error) {
	return Shared.Get(model, n)
}

// CachedPlanCtx is CachedPlan with cancellation: both the wait on an
// in-flight build and the build itself observe ctx.
func CachedPlanCtx(ctx context.Context, model acf.Model, n int) (*Plan, error) {
	return Shared.GetCtx(ctx, model, n)
}

// CacheStats is a snapshot of a PlanCache's counters since construction.
type CacheStats struct {
	// Hits counts requests served from an existing entry (a verified
	// content match), including requests that waited for an in-flight
	// build of the same plan.
	Hits uint64
	// Misses counts requests that had to run the O(n^2) recursion: cold
	// keys and fingerprint-collision fallthroughs (which build uncached).
	Misses uint64
	// Evictions counts ready entries dropped by the LRU cap.
	Evictions uint64
	// SingleflightWaits counts requests that blocked on another caller's
	// in-flight build instead of duplicating it.
	SingleflightWaits uint64
}

// PlanCache is a bounded, single-flighted cache of Durbin–Levinson plans.
type PlanCache struct {
	mu      sync.Mutex
	cap     int
	tick    uint64 // LRU clock
	stats   CacheStats
	entries map[cacheKey]*cacheEntry
}

type cacheKey struct {
	fp uint64
	n  int
}

type cacheEntry struct {
	ready chan struct{} // closed when plan/err are set
	plan  *Plan
	err   error
	used  uint64
}

// NewPlanCache returns a cache holding at most capacity ready plans.
func NewPlanCache(capacity int) *PlanCache {
	if capacity < 1 {
		capacity = 1
	}
	return &PlanCache{
		cap:     capacity,
		entries: make(map[cacheKey]*cacheEntry),
	}
}

// Len returns the number of cached entries (including in-flight builds).
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns a snapshot of the cache counters. Counters only ever grow;
// Purge does not reset them.
func (c *PlanCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Purge drops every ready entry. In-flight builds complete and are kept.
func (c *PlanCache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range c.entries {
		select {
		case <-e.ready:
			delete(c.entries, k)
		default:
		}
	}
}

// fingerprint hashes the IEEE-754 bits of the autocorrelation table plus
// the length with FNV-1a (64-bit).
func fingerprint(r []float64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(r)))
	for _, c := range b {
		h = (h ^ uint64(c)) * prime64
	}
	for _, x := range r {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		for _, c := range b {
			h = (h ^ uint64(c)) * prime64
		}
	}
	return h
}

// Get returns a plan for (model, n), building it at most once per key even
// under concurrent callers. The returned plan is shared: callers must treat
// it as read-only (which the Plan API already enforces).
func (c *PlanCache) Get(model acf.Model, n int) (*Plan, error) {
	return c.GetCtx(context.Background(), model, n)
}

// GetCtx is Get with cancellation: a caller waiting on another goroutine's
// in-flight build returns as soon as ctx is done, and a build started by
// this caller is aborted through the same context. When the shared build
// fails only because a *different* caller's context was canceled, the
// request is retried once so one aborted client cannot poison concurrent
// requests for the same plan (failed entries are dropped before waiters are
// released, so the retry starts a fresh build).
func (c *PlanCache) GetCtx(ctx context.Context, model acf.Model, n int) (*Plan, error) {
	// A span only when a tracer rides the context: the delta of the cache
	// counters across the call tells hit from miss from singleflight wait
	// without touching the lookup paths themselves.
	if tr := obs.TracerFrom(ctx); tr != nil {
		before := c.Stats()
		span := tr.Start("plan.acquire")
		plan, err := c.getRetry(ctx, model, n)
		after := c.Stats()
		attrs := map[string]any{
			"n":                  n,
			"hits":               after.Hits - before.Hits,
			"misses":             after.Misses - before.Misses,
			"singleflight_waits": after.SingleflightWaits - before.SingleflightWaits,
		}
		if err != nil {
			attrs["error"] = err.Error()
		}
		span.End(attrs)
		return plan, err
	}
	return c.getRetry(ctx, model, n)
}

func (c *PlanCache) getRetry(ctx context.Context, model acf.Model, n int) (*Plan, error) {
	plan, err := c.get(ctx, model, n)
	if err != nil && isContextErr(err) && ctx.Err() == nil {
		plan, err = c.get(ctx, model, n)
	}
	return plan, err
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// waitEntry blocks until the entry resolves or ctx is done, reporting
// whether this caller had to wait on an in-flight build.
func waitEntry(ctx context.Context, e *cacheEntry) (waited bool, err error) {
	select {
	case <-e.ready:
		return false, nil
	default:
	}
	select {
	case <-e.ready:
		return true, nil
	case <-ctx.Done():
		return true, ctx.Err()
	}
}

func (c *PlanCache) get(ctx context.Context, model acf.Model, n int) (*Plan, error) {
	if n <= 0 || n > MaxPlanLen {
		return NewPlanOptsCtx(ctx, model, n, PlanOptions{}) // let NewPlan produce the error
	}
	table := make([]float64, n)
	for k := range table {
		table[k] = model.At(k)
	}
	key := cacheKey{fp: fingerprint(table), n: n}

	c.mu.Lock()
	c.tick++
	if e, ok := c.entries[key]; ok {
		e.used = c.tick
		c.mu.Unlock()
		waited, werr := waitEntry(ctx, e)
		if waited {
			c.noteSingleflightWait()
		}
		if werr != nil {
			return nil, werr
		}
		if e.err != nil {
			return nil, e.err
		}
		if tablesEqual(e.plan.r, table) {
			c.noteHit()
			return e.plan, nil
		}
		// Fingerprint collision: different table, same hash. Build directly
		// without caching rather than evicting the legitimate occupant.
		c.noteMiss()
		return NewPlanOptsCtx(ctx, tableModel(table), n, PlanOptions{})
	}
	e := &cacheEntry{ready: make(chan struct{}), used: c.tick}
	c.entries[key] = e
	c.stats.Misses++
	c.evictLocked()
	c.mu.Unlock()

	plan, err := NewPlanOptsCtx(ctx, tableModel(table), n, PlanOptions{})
	if err != nil {
		c.mu.Lock()
		delete(c.entries, key)
		c.mu.Unlock()
		e.err = err
		close(e.ready)
		return nil, err
	}
	e.plan = plan
	close(e.ready)
	return plan, nil
}

func (c *PlanCache) noteHit() {
	c.mu.Lock()
	c.stats.Hits++
	c.mu.Unlock()
}

func (c *PlanCache) noteSingleflightWait() {
	c.mu.Lock()
	c.stats.SingleflightWaits++
	c.mu.Unlock()
}

func (c *PlanCache) noteMiss() {
	c.mu.Lock()
	c.stats.Misses++
	c.mu.Unlock()
}

// evictLocked drops least-recently-used ready entries until the cache is
// within capacity. In-flight builds are never evicted.
func (c *PlanCache) evictLocked() {
	for len(c.entries) > c.cap {
		var victim cacheKey
		var victimUsed uint64 = ^uint64(0)
		found := false
		for k, e := range c.entries {
			select {
			case <-e.ready:
			default:
				continue // still building
			}
			if e.used < victimUsed {
				victim, victimUsed, found = k, e.used, true
			}
		}
		if !found {
			return
		}
		delete(c.entries, victim)
		c.stats.Evictions++
	}
}

func tablesEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// tableModel adapts an evaluated autocorrelation table back into an
// acf.Model so builds work from the already-evaluated values (one model
// evaluation per Get, not two).
type tableModel []float64

func (t tableModel) At(k int) float64 {
	if k < 0 || k >= len(t) {
		return 0
	}
	return t[k]
}
