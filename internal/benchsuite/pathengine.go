package benchsuite

import (
	"sync"
	"testing"

	"vbrsim/internal/daviesharte"
	"vbrsim/internal/dist"
	"vbrsim/internal/fft"
	"vbrsim/internal/rng"
	"vbrsim/internal/transform"
)

// Path-engine ablations: the Davies-Harte batched zero-alloc engine
// (PathInto -> PathRealInto/Batch), the FFT twiddle-table
// cache, the packed real-input FFT, and the table-based marginal transform.

const (
	dhLen     = 4096 // Davies-Harte path length (circulant size 8192)
	fftLen    = 8192 // complex/real FFT ablation size, matching dhLen's m
	applyLen  = 4096 // transform ApplyTo batch size
	dhBatchSz = 8    // paths per Batch op
)

var (
	dhOnce sync.Once
	dhPlan *daviesharte.Plan
	dhErr  error

	lutOnce      sync.Once
	lutTransform transform.T
	lutTable     *transform.LUT
	lutErr       error
)

func getDHPlan(b *testing.B) *daviesharte.Plan {
	dhOnce.Do(func() { dhPlan, dhErr = daviesharte.NewPlan(benchModel, dhLen, daviesharte.Options{AllowApprox: true}) })
	if dhErr != nil {
		b.Fatal(dhErr)
	}
	return dhPlan
}

func getLUT(b *testing.B) (transform.T, *transform.LUT) {
	lutOnce.Do(func() {
		lutTransform = transform.New(dist.Lognormal{Mu: 9.6, Sigma: 0.4})
		lutTable, lutErr = lutTransform.NewDefaultLUT()
	})
	if lutErr != nil {
		b.Fatal(lutErr)
	}
	return lutTransform, lutTable
}

// BenchDHPathInto is the zero-alloc bit-identical path: reused scratch,
// cached-twiddle full-length complex FFT.
func BenchDHPathInto(b *testing.B) {
	plan := getDHPlan(b)
	r := rng.New(1)
	var s daviesharte.Scratch
	out := make([]float64, dhLen)
	plan.PathInto(out, &s, r) // warm: scratch grows once, then 0 B/op
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan.PathInto(out, &s, r)
	}
}

// BenchDHPathRealInto synthesizes through the packed half-spectrum FFT
// (one complex transform of length m/2 instead of m).
func BenchDHPathRealInto(b *testing.B) {
	plan := getDHPlan(b)
	r := rng.New(1)
	var s daviesharte.Scratch
	out := make([]float64, dhLen)
	plan.PathRealInto(out, &s, r) // warm: scratch grows once, then 0 B/op
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan.PathRealInto(out, &s, r)
	}
}

// BenchDHBatch generates dhBatchSz seeded paths per op through the batch
// engine with one reused scratch arena (the zero-alloc inline layout).
func BenchDHBatch(b *testing.B) {
	plan := getDHPlan(b)
	dst := make([][]float64, dhBatchSz)
	seeds := make([]uint64, dhBatchSz)
	for i := range dst {
		dst[i] = make([]float64, dhLen)
		seeds[i] = uint64(i + 1)
	}
	scratch := []*daviesharte.Scratch{new(daviesharte.Scratch)}
	if err := plan.Batch(dst, seeds, scratch); err != nil { // warm the arena
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := plan.Batch(dst, seeds, scratch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchFFTForwardReference runs the complex forward FFT with twiddles
// recomputed on the fly (the pre-table baseline).
func BenchFFTForwardReference(b *testing.B) {
	x := benchSpectrum(fftLen)
	buf := make([]complex128, fftLen)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		if err := fft.ForwardReference(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchFFTForwardTabled runs the same transform through the per-size cached
// twiddle and bit-reversal tables (bit-identical output).
func BenchFFTForwardTabled(b *testing.B) {
	x := benchSpectrum(fftLen)
	buf := make([]complex128, fftLen)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		if err := fft.Forward(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchFFTRealForward computes the half-spectrum of a real input by packing
// it into one complex FFT of half the length.
func BenchFFTRealForward(b *testing.B) {
	x := make([]float64, fftLen)
	r := rng.New(3)
	for i := range x {
		x[i] = r.Norm()
	}
	a := make([]complex128, fftLen/2+1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fft.RealForward(a, x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchFFTHermitianReal runs the fused inverse half-spectrum kernel (the
// Davies-Harte synthesis back end): Hermitian scatter + radix-2² inverse
// stages + unpack in one pass, with cache-blocked tiles above stageTile.
func BenchFFTHermitianReal(b *testing.B) {
	h := fftLen / 2
	a := benchSpectrum(h + 1)
	// The kernel requires a genuinely Hermitian-representable input:
	// real DC and Nyquist bins.
	a[0] = complex(real(a[0]), 0)
	a[h] = complex(real(a[h]), 0)
	out := make([]float64, fftLen)
	z := make([]complex128, h)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fft.HermitianReal(out, a, z); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchTransformApplyExact maps a background path to the foreground through
// the exact CDF/quantile composition.
func BenchTransformApplyExact(b *testing.B) {
	tr, _ := getLUT(b)
	xs, dst := benchNormals(applyLen)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.ApplyTo(dst, xs)
	}
}

// BenchTransformApplyLUT maps the same path through the precomputed
// monotone interpolation table (error within LUT.MaxError).
func BenchTransformApplyLUT(b *testing.B) {
	_, lut := getLUT(b)
	xs, dst := benchNormals(applyLen)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lut.ApplyTo(dst, xs)
	}
}

func benchSpectrum(n int) []complex128 {
	r := rng.New(2)
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(r.Norm(), r.Norm())
	}
	return x
}

func benchNormals(n int) (xs, dst []float64) {
	r := rng.New(4)
	xs = make([]float64, n)
	for i := range xs {
		xs[i] = r.Norm()
	}
	return xs, make([]float64, n)
}
