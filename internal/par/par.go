// Package par provides the small deterministic fan-out helpers shared by
// every replication loop in the library (queue Monte Carlo, importance
// sampling, attenuation measurement, conformance replication bands) and by
// the parallel paths of Hosking plan construction, trunk fills and the
// server's batched step.
//
// The helpers deliberately do NOT hide how work maps to results: callers
// index per-job state (seeds, output slots) by the job index i, never by the
// worker index, so results are bit-identical for any worker count. Workers
// exist only to overlap CPU time; they own scratch arenas, not randomness.
//
// Every helper runs through one chunk runner: [0, n) is split into at most
// `workers` contiguous chunks, one per worker slot. Slot 0 runs on the
// calling goroutine and every other slot on a goroutine of its own. A panic
// in any chunk is re-raised on the calling goroutine once every chunk has
// finished, so callers' recovers (net/http's per-connection one included)
// see it instead of the process dying.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Workers resolves a requested worker count: values <= 0 select
// runtime.GOMAXPROCS(0), and the result is clamped to [1, jobs] so callers
// never spawn idle goroutines.
func Workers(requested, jobs int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return max(min(w, jobs), 1)
}

// For runs fn(worker, i) for every i in [0, n), fanning the index range
// across the given number of workers in contiguous chunks. fn receives the
// worker slot (0..workers-1) for scratch-arena lookup and the job index i for
// everything that affects results. With workers <= 1 and no observer the
// loop runs inline on the calling goroutine and performs no allocations.
func For(workers, n int, fn func(worker, i int)) {
	if workers <= 1 && observer.Load() == nil {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	run(workers, n, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(w, i)
		}
	})
}

// ForChunks runs fn(worker, lo, hi) once per worker slot, where [lo, hi) is
// the contiguous chunk of [0, n) that slot owns — the same chunking For
// computes, exposed as whole ranges. The worker→range mapping depends only
// on (workers, n), so repeated calls with the same arguments hand every
// index to the same worker slot: callers that key per-worker state (scratch
// arenas, cache-warm session runs) get stable affinity across rounds, and a
// worker walks one contiguous run of jobs instead of striped indices. As
// with For, per-job state must be indexed by job index, never by worker, so
// results are bit-identical for any worker count. With workers <= 1 and no
// observer the whole range runs inline on the calling goroutine with no
// allocations.
func ForChunks(workers, n int, fn func(worker, lo, hi int)) {
	run(workers, n, fn)
}

// ForCtx is For with cancellation and error propagation: each worker checks
// ctx between jobs and stops its chunk on the first error. ForCtx returns the
// error of the lowest-indexed failing job (deterministic regardless of worker
// interleaving), or the context error if the run was cancelled.
func ForCtx(ctx context.Context, workers, n int, fn func(worker, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 1 && observer.Load() == nil {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, max(min(workers, n), 1)) // one slot per chunk, as in run
	run(workers, n, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			if ctx.Err() != nil {
				return
			}
			if err := fn(w, i); err != nil {
				errs[w] = err
				return
			}
		}
	})
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs { // slots own ascending index ranges
		if err != nil {
			return err
		}
	}
	return nil
}

// run is the one chunk runner behind For, ForChunks and ForCtx. It clamps
// workers to [1, n], splits [0, n) into that many contiguous chunks and
// calls body(w, lo, hi) for each. With an observer installed it also times
// the run and counts in-flight chunks; otherwise it reads no clock.
func run(workers, n int, body func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	workers = max(min(workers, n), 1)
	notify := observer.Load()
	if notify == nil {
		split(workers, n, body)
		return
	}
	var inFlight, peak, busy atomic.Int64
	start := time.Now()
	split(workers, n, func(w, lo, hi int) {
		cur := inFlight.Add(1)
		for old := peak.Load(); cur > old && !peak.CompareAndSwap(old, cur); old = peak.Load() {
		}
		t0 := time.Now()
		body(w, lo, hi)
		busy.Add(int64(time.Since(t0)))
		inFlight.Add(-1)
	})
	(*notify)(RunStats{
		Workers:      workers,
		Tasks:        n,
		PeakInFlight: int(peak.Load()),
		Busy:         time.Duration(busy.Load()),
		Wall:         time.Since(start),
	})
}

// split runs body over the contiguous chunks of [0, n): worker slot w owns
// [w*chunk, min((w+1)*chunk, n)) with chunk = ceil(n/workers). Slot 0 runs
// on the calling goroutine and every other slot on a goroutine of its own.
// A panic in one chunk is recovered, the other chunks run to completion,
// and the panic value of the lowest panicking slot is re-raised on the
// caller.
func split(workers, n int, body func(worker, lo, hi int)) {
	if workers == 1 {
		body(0, 0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		panicSlot = workers
		panicVal  any
	)
	runSlot := func(w int) {
		defer func() {
			if v := recover(); v != nil {
				mu.Lock()
				if w < panicSlot {
					panicSlot, panicVal = w, v
				}
				mu.Unlock()
			}
		}()
		body(w, w*chunk, min((w+1)*chunk, n))
	}
	for w := 1; w*chunk < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runSlot(w)
		}()
	}
	runSlot(0)
	wg.Wait()
	if panicSlot < workers {
		panic(panicVal)
	}
}
