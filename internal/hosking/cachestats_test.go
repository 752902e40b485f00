package hosking

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"vbrsim/internal/acf"
)

// Stats: a cold Get is a miss, repeats are content hits, and the LRU cap
// produces evictions.
func TestPlanCacheStats(t *testing.T) {
	c := NewPlanCache(2)
	model := acf.FGN{H: 0.8}
	if _, err := c.Get(model, 200); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != 0 {
		t.Fatalf("after cold get: %+v, want 1 miss, 0 hits", s)
	}
	// Content hit: the same model value again.
	if _, err := c.Get(model, 200); err != nil {
		t.Fatal(err)
	}
	// Content hit: a different model value with the same evaluated table.
	if _, err := c.Get(sliceModel(acf.Table(model, 199)), 200); err != nil {
		t.Fatal(err)
	}
	s = c.Stats()
	if s.Hits != 2 || s.Misses != 1 {
		t.Fatalf("after warm gets: %+v, want 2 hits, 1 miss", s)
	}
	// Overflow the cap: two more distinct plans evict the oldest.
	c.Get(acf.FGN{H: 0.7}, 200)
	c.Get(acf.FGN{H: 0.6}, 200)
	s = c.Stats()
	if s.Misses != 3 {
		t.Fatalf("stats after fills: %+v, want 3 misses", s)
	}
	if s.Evictions == 0 {
		t.Fatalf("stats after overflowing cap 2 with 3 plans: %+v, want evictions > 0", s)
	}
}

// Singleflight waits are counted when a second caller blocks on an
// in-flight build of the same key.
func TestPlanCacheStatsSingleflightWait(t *testing.T) {
	c := NewPlanCache(4)
	model := acf.FGN{H: 0.85}
	const n = 4096 // several ms of Durbin-Levinson, plenty to land in-flight
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := c.Get(model, n); err != nil {
			t.Error(err)
		}
	}()
	// Wait for the builder to register its entry, then pile on.
	for c.Len() == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	if _, err := c.Get(model, n); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	s := c.Stats()
	if s.Hits == 0 {
		t.Fatalf("stats %+v: the piled-on get should count as a hit", s)
	}
	// The wait counter is timing-dependent in principle, but a same-key get
	// issued while the entry exists and the O(n^2) build runs must block.
	if s.SingleflightWaits == 0 {
		t.Fatalf("stats %+v: expected a singleflight wait", s)
	}
}

// A waiter canceled while the build is in flight must not count as a cache
// hit: only requests that actually received a plan move the hit counter.
func TestPlanCacheCanceledWaiterNotCountedAsHit(t *testing.T) {
	c := NewPlanCache(4)
	model := acf.FGN{H: 0.85}
	const n = 4096 // several ms of Durbin-Levinson, plenty to land in-flight
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := c.Get(model, n); err != nil {
			t.Error(err)
		}
	}()
	for c.Len() == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.GetCtx(ctx, model, n); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	wg.Wait()
	if s := c.Stats(); s.Hits != 0 {
		t.Fatalf("stats %+v: canceled waiter must not count as a hit", s)
	}
	// A live caller after the build resolved is a hit as before.
	if _, err := c.Get(model, n); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Hits != 1 {
		t.Fatalf("stats %+v: want exactly the post-resolve get counted", s)
	}
}

// A canceled context aborts the O(n^2) recursion itself.
func TestNewPlanCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := NewPlanOptsCtx(ctx, acf.FGN{H: 0.8}, 300, PlanOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// A canceled build must not poison the cache: the failed entry is dropped
// and a later caller with a live context builds the plan normally.
func TestCacheGetCtxCanceledThenRecovers(t *testing.T) {
	c := NewPlanCache(4)
	model := acf.FGN{H: 0.8}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.GetCtx(ctx, model, 300); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	p, err := c.Get(model, 300)
	if err != nil {
		t.Fatalf("recovery get: %v", err)
	}
	if p == nil || p.Len() != 300 {
		t.Fatal("recovery get returned a bad plan")
	}
}
