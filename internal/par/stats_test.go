package par

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
)

// TestObserverReceivesRunStats checks the global observer hook fires for
// the package-level helpers, that its stats are in range, and that results
// and ForCtx's lowest-index error stay identical while it is installed. Not
// parallel: the observer is process-wide.
func TestObserverReceivesRunStats(t *testing.T) {
	const n = 257 // odd length so chunks are ragged
	fill := func(workers int) []uint64 {
		out := make([]uint64, n)
		For(workers, n, func(_, i int) {
			out[i] = math.Float64bits(math.Sin(float64(i)*1.618) * math.Exp(float64(i%17)))
		})
		return out
	}
	errLow, errHigh := errors.New("low"), errors.New("high")
	failing := func(_, i int) error {
		switch i {
		case 31:
			return errLow
		case 77:
			return errHigh
		}
		return nil
	}
	base := fill(1)

	var runs []RunStats
	SetObserver(func(st RunStats) { runs = append(runs, st) })
	defer SetObserver(nil)

	for workers := 1; workers <= 8; workers++ {
		runs = runs[:0]
		got := fill(workers)
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("workers=%d: index %d differs with observer installed: %x != %x",
					workers, i, got[i], base[i])
			}
		}
		if err := ForCtx(context.Background(), workers, n, failing); !errors.Is(err, errLow) {
			t.Fatalf("workers=%d: ForCtx = %v, want lowest-index error", workers, err)
		}
		if len(runs) != 2 {
			t.Fatalf("workers=%d: observer saw %d runs, want 2", workers, len(runs))
		}
		for _, st := range runs {
			if st.Tasks != n || st.Workers != workers {
				t.Fatalf("workers=%d: stats = %+v", workers, st)
			}
			if st.PeakInFlight < 1 || st.PeakInFlight > workers {
				t.Fatalf("workers=%d: peak in flight %d outside [1, %d]", workers, st.PeakInFlight, workers)
			}
			if u := st.Utilization(); u < 0 || u > 1 {
				t.Fatalf("workers=%d: utilization %v outside [0, 1] (%+v)", workers, u, st)
			}
		}
	}
}

// TestObserverForChunks checks the observed ForChunks path keeps the
// exact chunking of the plain path (every index once, same owner slots)
// while reporting the run to the observer.
func TestObserverForChunks(t *testing.T) {
	const n = 53
	const workers = 4
	plain := make([]int32, n)
	ForChunks(workers, n, func(worker, lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.StoreInt32(&plain[i], int32(worker))
		}
	})

	var runs []RunStats
	SetObserver(func(st RunStats) { runs = append(runs, st) })
	defer SetObserver(nil)

	var counts [n]int32
	ForChunks(workers, n, func(worker, lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&counts[i], 1)
			if plain[i] != int32(worker) {
				t.Errorf("index %d: observed owner %d, plain owner %d", i, worker, plain[i])
			}
		}
	})
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d ran %d times under the observer", i, c)
		}
	}
	if len(runs) != 1 || runs[0].Tasks != n || runs[0].Workers != workers {
		t.Fatalf("observer runs = %+v", runs)
	}
	if st := runs[0]; st.PeakInFlight < 1 || st.PeakInFlight > workers || st.Utilization() < 0 || st.Utilization() > 1 {
		t.Fatalf("observer stats out of range: %+v (utilization %v)", st, st.Utilization())
	}
}

func TestObserverInlinePath(t *testing.T) {
	var got *RunStats
	SetObserver(func(st RunStats) { got = &st })
	defer SetObserver(nil)
	For(1, 10, func(_, _ int) {})
	if got == nil || got.Workers != 1 || got.Tasks != 10 || got.PeakInFlight != 1 {
		t.Fatalf("inline run stats = %+v", got)
	}
}
