package par

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	max := runtime.GOMAXPROCS(0)
	cases := []struct {
		requested, jobs, want int
	}{
		{0, 100, max},
		{-3, 100, max},
		{4, 100, 4},
		{8, 3, 3},
		{8, 0, 1},
		{1, 100, 1},
	}
	for _, c := range cases {
		if got := Workers(c.requested, c.jobs); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.requested, c.jobs, got, c.want)
		}
	}
}

// TestForCoversEveryIndexOnce checks each job index runs exactly once for a
// range of worker counts, including workers > n.
func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 16, 100} {
		const n = 53
		var counts [n]int32
		For(workers, n, func(worker, i int) {
			atomic.AddInt32(&counts[i], 1)
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

// TestForChunksCoversRangeOnce checks the chunk ranges tile [0, n) exactly
// once for a range of worker counts, and that they match For's chunking —
// the sticky-affinity contract is that the same (workers, n) always hands
// the same indices to the same worker slot.
func TestForChunksCoversRangeOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 16, 100} {
		const n = 53
		var counts [n]int32
		owner := make([]int32, n)
		for i := range owner {
			owner[i] = -1
		}
		ForChunks(workers, n, func(worker, lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&counts[i], 1)
				atomic.StoreInt32(&owner[i], int32(worker))
			}
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
		// Same mapping as For: worker w owns [w*chunk, (w+1)*chunk).
		w := workers
		if w > n {
			w = n
		}
		chunk := (n + w - 1) / w
		for i := range owner {
			if want := int32(i / chunk); owner[i] != want {
				t.Fatalf("workers=%d: index %d ran on worker %d, want %d", workers, i, owner[i], want)
			}
		}
		// Repeat runs hand every index to the same slot (sticky affinity).
		ForChunks(workers, n, func(worker, lo, hi int) {
			for i := lo; i < hi; i++ {
				if owner[i] != int32(worker) {
					t.Errorf("workers=%d: index %d moved from worker %d to %d", workers, i, owner[i], worker)
				}
			}
		})
	}
}

func TestForChunksInlineZeroAlloc(t *testing.T) {
	sink := 0
	fn := func(worker, lo, hi int) {
		for i := lo; i < hi; i++ {
			sink += i
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		ForChunks(1, 100, fn)
	})
	if allocs != 0 {
		t.Fatalf("inline ForChunks allocates %v/op, want 0", allocs)
	}
}

func TestForInlineZeroAlloc(t *testing.T) {
	sink := 0
	fn := func(worker, i int) { sink += i }
	allocs := testing.AllocsPerRun(10, func() {
		For(1, 100, fn)
	})
	if allocs != 0 {
		t.Fatalf("inline For allocates %v/op, want 0", allocs)
	}
}

// TestForCtxFirstErrorByIndex checks the returned error is the one from the
// lowest failing index regardless of worker count.
func TestForCtxFirstErrorByIndex(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	for _, workers := range []int{1, 2, 4, 8} {
		err := ForCtx(context.Background(), workers, 40, func(worker, i int) error {
			switch i {
			case 7:
				return errLow
			case 31:
				return errHigh
			}
			return nil
		})
		if !errors.Is(err, errLow) {
			t.Fatalf("workers=%d: got %v, want lowest-index error", workers, err)
		}
	}
}

func TestForCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	err := ForCtx(ctx, 4, 1000, func(worker, i int) error {
		if ran.Add(1) == 3 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if ran.Load() == 1000 {
		t.Error("cancellation did not stop the loop early")
	}
}

func TestForCtxCompletes(t *testing.T) {
	var counts [17]int32
	if err := ForCtx(context.Background(), 5, len(counts), func(worker, i int) error {
		atomic.AddInt32(&counts[i], 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
}

// TestWorkerPanicReachesCaller checks a panic in a worker goroutine is
// re-raised on the calling goroutine with the lowest panicking slot's value,
// after every other chunk has run, and leaves no goroutine behind.
func TestWorkerPanicReachesCaller(t *testing.T) {
	const n, workers = 40, 4
	before := runtime.NumGoroutine()
	boom1, boom3 := errors.New("boom 1"), errors.New("boom 3")
	var ran [workers]atomic.Bool
	got := func() (v any) {
		defer func() { v = recover() }()
		ForChunks(workers, n, func(w, lo, hi int) {
			switch w {
			case 1:
				panic(boom1)
			case 3:
				panic(boom3)
			}
			time.Sleep(time.Duration(w) * 20 * time.Millisecond) // slot 2 finishes well after the panics
			ran[w].Store(true)
		})
		return nil
	}()
	if got != boom1 {
		t.Fatalf("recovered %v, want %v", got, boom1)
	}
	for _, w := range []int{0, 2} {
		if !ran[w].Load() {
			t.Errorf("chunk %d did not run to completion", w)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("%d goroutines left after the panic, had %d before", g, before)
	}
}
