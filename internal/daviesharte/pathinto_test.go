package daviesharte

import (
	"math"
	"testing"

	"vbrsim/internal/acf"
	"vbrsim/internal/fft"
	"vbrsim/internal/rng"
)

// TestPathIntoBitIdentical pins the zero-alloc path (precomputed scales +
// tabled FFT) to the reference implementation bit-for-bit; the conformance
// golden traces route through Path, so this is the contract that keeps them
// unchanged.
func TestPathIntoBitIdentical(t *testing.T) {
	for _, n := range []int{1, 2, 16, 100, 1024, 4096} {
		p, err := NewPlan(acf.FGN{H: 0.8}, n, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := p.PathReference(rng.New(99))
		got := make([]float64, n)
		var s Scratch
		p.PathInto(got, &s, rng.New(99))
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d frame %d: PathInto %v != reference %v (not bit-identical)", n, i, got[i], want[i])
			}
		}
		viaPath := p.Path(rng.New(99))
		for i := range want {
			if math.Float64bits(viaPath[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d frame %d: Path %v != reference %v (not bit-identical)", n, i, viaPath[i], want[i])
			}
		}
	}
}

// TestPathRealIntoMatchesPath checks the half-spectrum synthesis agrees with
// the full complex path to floating-point accuracy (same draws, different
// transform rounding).
func TestPathRealIntoMatchesPath(t *testing.T) {
	for _, n := range []int{1, 2, 16, 100, 1024, 4096} {
		p, err := NewPlan(acf.FGN{H: 0.8}, n, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := p.Path(rng.New(1234))
		got := make([]float64, n)
		var s Scratch
		p.PathRealInto(got, &s, rng.New(1234))
		var worst float64
		for i := range want {
			if d := math.Abs(got[i] - want[i]); d > worst {
				worst = d
			}
		}
		if worst > 1e-9 {
			t.Fatalf("n=%d: worst |PathRealInto-Path| = %g", n, worst)
		}
	}
}

// TestBatchWorkerInvariant checks Batch output depends only on the seeds:
// 1 worker and 8 workers produce bit-identical paths, and each path matches a
// direct PathRealInto with the same seed.
func TestBatchWorkerInvariant(t *testing.T) {
	const n, b = 512, 37
	p, err := NewPlan(acf.FGN{H: 0.9}, n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seeds := make([]uint64, b)
	for i := range seeds {
		seeds[i] = uint64(1000 + i*7)
	}
	run := func(workers int) [][]float64 {
		dst := make([][]float64, b)
		for i := range dst {
			dst[i] = make([]float64, n)
		}
		if err := p.Batch(dst, seeds, make([]*Scratch, workers)); err != nil {
			t.Fatal(err)
		}
		return dst
	}
	one := run(1)
	eight := run(8)
	var s Scratch
	direct := make([]float64, n)
	for i := range one {
		p.PathRealInto(direct, &s, rng.New(seeds[i]))
		for j := 0; j < n; j++ {
			if math.Float64bits(one[i][j]) != math.Float64bits(eight[i][j]) {
				t.Fatalf("path %d frame %d: workers=1 %v != workers=8 %v", i, j, one[i][j], eight[i][j])
			}
			if math.Float64bits(one[i][j]) != math.Float64bits(direct[j]) {
				t.Fatalf("path %d frame %d: batch %v != direct PathRealInto %v", i, j, one[i][j], direct[j])
			}
		}
	}
}

func TestBatchValidation(t *testing.T) {
	p, err := NewPlan(acf.FGN{H: 0.7}, 64, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dst := [][]float64{make([]float64, 64)}
	if err := p.Batch(dst, []uint64{1, 2}, make([]*Scratch, 1)); err == nil {
		t.Error("mismatched dst/seeds lengths accepted")
	}
	if err := p.Batch(dst, []uint64{1}, nil); err == nil {
		t.Error("empty scratch list accepted")
	}
	if err := p.Batch([][]float64{make([]float64, 10)}, []uint64{1}, make([]*Scratch, 1)); err == nil {
		t.Error("short destination accepted")
	}
}

// TestPathEngineZeroAlloc is the allocation regression gate for the hot
// paths: PathInto, PathRealInto, and single-worker Batch must not allocate at
// steady state.
func TestPathEngineZeroAlloc(t *testing.T) {
	const n = 1024
	p, err := NewPlan(acf.FGN{H: 0.9}, n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, n)
	var s Scratch
	r := rng.New(5)
	p.PathInto(dst, &s, r) // warm scratch and FFT tables
	if a := testing.AllocsPerRun(10, func() { p.PathInto(dst, &s, r) }); a != 0 {
		t.Errorf("PathInto allocates %v/op at steady state, want 0", a)
	}
	p.PathRealInto(dst, &s, r)
	if a := testing.AllocsPerRun(10, func() { p.PathRealInto(dst, &s, r) }); a != 0 {
		t.Errorf("PathRealInto allocates %v/op at steady state, want 0", a)
	}
	batchDst := [][]float64{dst}
	seeds := []uint64{77}
	scratch := []*Scratch{&s}
	if err := p.Batch(batchDst, seeds, scratch); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(10, func() {
		if err := p.Batch(batchDst, seeds, scratch); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("single-worker Batch allocates %v/op at steady state, want 0", a)
	}
}

// PathReference is the seed implementation of Path — per-call allocations and
// the on-the-fly-twiddle reference FFT. It is the independent oracle for
// PathInto's bit-identity test and the baseline of BenchmarkPathVsReference;
// it lives in a test file, so no production build carries it.
func (p *Plan) PathReference(r *rng.Source) []float64 {
	m := p.m
	a := make([]complex128, m)
	// Hermitian-symmetric Gaussian spectrum.
	a[0] = complex(p.sqrtLambda[0]*r.Norm(), 0)
	a[m/2] = complex(p.sqrtLambda[m/2]*r.Norm(), 0)
	invSqrt2 := 1 / math.Sqrt2
	for k := 1; k < m/2; k++ {
		re := p.sqrtLambda[k] * invSqrt2 * r.Norm()
		im := p.sqrtLambda[k] * invSqrt2 * r.Norm()
		a[k] = complex(re, im)
		a[m-k] = complex(re, -im)
	}
	if err := fft.ForwardReference(a); err != nil {
		panic("daviesharte: internal FFT error: " + err.Error())
	}
	out := make([]float64, p.n)
	for i := range out {
		out[i] = real(a[i])
	}
	return out
}

// BenchmarkPathVsReference walks the path ladder from the allocating
// reference to the zero-alloc kernels it pins:
//
//	go test ./internal/daviesharte -run '^$' -bench PathVsReference
func BenchmarkPathVsReference(b *testing.B) {
	const n = 4096
	p, err := NewPlan(acf.FGN{H: 0.8}, n, Options{AllowApprox: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("reference", func(b *testing.B) {
		r := rng.New(1)
		for i := 0; i < b.N; i++ {
			p.PathReference(r)
		}
	})
	var s Scratch
	out := make([]float64, n)
	for _, bc := range []struct {
		name string
		path func([]float64, *Scratch, *rng.Source)
	}{{"into", p.PathInto}, {"real-into", p.PathRealInto}} {
		b.Run(bc.name, func(b *testing.B) {
			r := rng.New(1)
			bc.path(out, &s, r) // warm: scratch grows once, then 0 B/op
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bc.path(out, &s, r)
			}
		})
	}
}
