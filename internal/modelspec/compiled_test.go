package modelspec

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"vbrsim/internal/hosking"
)

func openSpec(t *testing.T, spec Spec, tol float64) *Stream {
	t.Helper()
	st, err := spec.OpenCtx(context.Background(), tol)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	return st
}

func fill(st *Stream, n int) []float64 {
	out := make([]float64, n)
	st.Fill(out)
	return out
}

// TestCompiledSharedAcrossSeeds: opens of one spec content that differ only
// by seed share the truncation, block engine and LUT, and still produce
// their own seeds' frames.
func TestCompiledSharedAcrossSeeds(t *testing.T) {
	a, b := openSpec(t, blockSpec(1), 0), openSpec(t, blockSpec(2), 0)
	if a.comp != b.comp {
		t.Fatal("two seeds of one spec got different compiled entries")
	}
	if a.comp.trunc == nil || a.comp.eng == nil || a.comp.lut == nil {
		t.Fatalf("block entry incomplete: %+v", a.comp)
	}
	if a.BlockEngine() != b.BlockEngine() {
		t.Error("BlockEngine differs between the two streams")
	}
	bitsEqual(t, "seed 1", fill(a, 512), blockRef(t, 1, 512), 0)
	bitsEqual(t, "seed 2", fill(b, 512), blockRef(t, 2, 512), 0)
}

// TestCompiledKeyedByContent: the key holds the full generation content, so
// a different marginal, tol or engine over the same ACF gets its own entry.
func TestCompiledKeyedByContent(t *testing.T) {
	base := openSpec(t, blockSpec(1), 0)

	other := blockSpec(1)
	other.Marginal = &MarginalSpec{Kind: "gamma", Shape: 2, Scale: 7000}
	marg := openSpec(t, other, 0)
	if marg.comp == base.comp || marg.comp.lut == base.comp.lut {
		t.Error("a different marginal shared the entry")
	}
	if marg.comp.trunc != base.comp.trunc {
		t.Error("the same ACF and tol should share one truncation")
	}

	tol := openSpec(t, blockSpec(1), 2e-3)
	if tol.comp == base.comp || tol.comp.trunc == base.comp.trunc {
		t.Error("a different tol shared the entry or truncation")
	}

	trunc := blockSpec(1)
	trunc.Engine = ""
	tr := openSpec(t, trunc, 0)
	if tr.comp == base.comp || tr.comp.eng != nil {
		t.Error("the truncated engine shared the block entry")
	}
}

// TestCompiledColdAfterPurge: a purged plan cache turns the next open cold —
// one plan-cache miss and a fresh engine — with bit-identical frames.
func TestCompiledColdAfterPurge(t *testing.T) {
	before := openSpec(t, blockSpec(5), 0)
	want := fill(before, 2048)

	hosking.Shared.Purge()
	misses := hosking.Shared.Stats().Misses
	after := openSpec(t, blockSpec(5), 0)
	if d := hosking.Shared.Stats().Misses - misses; d != 1 {
		t.Errorf("open after purge counted %d plan-cache misses, want 1", d)
	}
	if after.comp == before.comp || after.BlockEngine() == before.BlockEngine() {
		t.Error("open after purge reused the pre-purge engine")
	}
	bitsEqual(t, "after purge", fill(after, 2048), want, 0)
}

// TestCompiledReleased: the map holds entries weakly, so once every stream
// of a spec is closed and dropped a collection empties it.
func TestCompiledReleased(t *testing.T) {
	spec := blockSpec(9)
	spec.Marginal = &MarginalSpec{Kind: "gamma", Shape: 3, Scale: 5000}
	func() {
		for seed := uint64(1); seed <= 2; seed++ {
			spec.Seed = seed
			st, err := spec.OpenCtx(context.Background(), 0)
			if err != nil {
				t.Fatal(err)
			}
			st.ImpliedACF(64)
			st.Close()
		}
	}()
	key, _ := spec.contentKey(0)
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		compiledCache.mu.Lock()
		_, held := compiledCache.m[key]
		n := len(compiledCache.m)
		compiledCache.mu.Unlock()
		if !held && n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after 2s: key held = %v, %d entries left", held, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCompiledConcurrentOpens: eight goroutines racing cold opens of one
// spec each get their own seed's frames, and converge on one entry.
func TestCompiledConcurrentOpens(t *testing.T) {
	const workers, n = 8, 1024
	want := make([][]float64, workers)
	for i := range want {
		want[i] = blockRef(t, uint64(100+i), n)
	}
	hosking.Shared.Purge()
	streams := make([]*Stream, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			spec := blockSpec(uint64(100 + i))
			streams[i], errs[i] = spec.OpenCtx(context.Background(), 0)
		}()
	}
	wg.Wait()
	for i, st := range streams {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		defer st.Close()
		bitsEqual(t, "concurrent open", fill(st, n), want[i], 0)
		if st.comp != streams[0].comp {
			t.Errorf("stream %d holds its own entry", i)
		}
	}
}

// TestImpliedACFPrefixMemo: the memoized curve is extended, never
// recomputed shorter, and every length reads a bit-identical prefix of the
// direct computation.
func TestImpliedACFPrefixMemo(t *testing.T) {
	st := openSpec(t, blockSpec(3), 0)
	long := st.ImpliedACF(1025)
	short := st.ImpliedACF(64)
	bitsEqual(t, "short vs long", short, long[:64], 0)
	short[1] = -1 // a copy: the caller may scribble on it
	bitsEqual(t, "after caller write", st.ImpliedACF(1025), long, 0)
	bg := st.comp.trunc.ImpliedACF(1025)
	a := st.comp.atten
	for k := 1; k < len(bg); k++ {
		bg[k] *= a
	}
	bitsEqual(t, "vs direct", long, bg, 0)
}
