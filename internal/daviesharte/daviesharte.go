// Package daviesharte implements the Davies–Harte circulant-embedding method
// for exact O(n log n) generation of stationary Gaussian processes with a
// given autocorrelation. It complements Hosking's O(n^2) method (package
// hosking): both are exact, so each validates the other, and Davies–Harte
// makes movie-length traces (hundreds of thousands of frames) practical.
//
// The method embeds the target covariance in a circulant matrix whose
// eigenvalues are the FFT of the extended autocorrelation; when every
// eigenvalue is non-negative the synthesis is exact. For autocorrelations
// whose minimal embedding is not positive semi-definite, NewPlan reports the
// negative mass so callers can decide whether the (tiny) truncation is
// acceptable.
package daviesharte

import (
	"errors"
	"fmt"
	"math"

	"vbrsim/internal/acf"
	"vbrsim/internal/fft"
	"vbrsim/internal/par"
	"vbrsim/internal/rng"
)

// ErrNotEmbeddable is returned when the circulant embedding has substantial
// negative eigenvalue mass and Options.AllowApprox is false.
var ErrNotEmbeddable = errors.New("daviesharte: circulant embedding is not positive semi-definite")

// Options configures plan construction.
type Options struct {
	// AllowApprox accepts embeddings with negative eigenvalues by clamping
	// them to zero. The resulting process is approximate; NegativeMass on
	// the plan quantifies the distortion.
	AllowApprox bool
	// Tolerance is the relative negative-eigenvalue mass accepted without
	// AllowApprox; default 1e-9.
	Tolerance float64
}

// Plan holds the precomputed eigenvalue square roots for sample generation.
// A Plan is immutable after construction and safe for concurrent use.
type Plan struct {
	n            int       // requested path length
	m            int       // circulant size (power of two, >= 2n)
	sqrtLambda   []float64 // sqrt(eigenvalue / m), length m
	scale        []float64 // sqrtLambda[k] / sqrt(2) for k = 1..m/2-1
	weights      []float64 // per-bin half-spectrum scales, length m/2+1
	negativeMass float64   // relative mass of clamped negative eigenvalues
}

// NewPlan builds a circulant embedding for paths of length n with the given
// autocorrelation model.
func NewPlan(model acf.Model, n int, opt Options) (*Plan, error) {
	if n <= 0 {
		return nil, errors.New("daviesharte: non-positive length")
	}
	if opt.Tolerance == 0 {
		opt.Tolerance = 1e-9
	}
	m := fft.NextPowerOfTwo(2 * n)
	// Extended autocorrelation on the circle: c_j = r(j) for j <= m/2,
	// mirrored for j > m/2. Using the true model beyond lag n (rather than
	// zero padding) keeps the embedding PSD for the monotone ACFs used here.
	c := make([]complex128, m)
	half := m / 2
	for j := 0; j <= half; j++ {
		c[j] = complex(model.At(j), 0)
	}
	for j := half + 1; j < m; j++ {
		c[j] = c[m-j]
	}
	if err := fft.Forward(c); err != nil {
		return nil, err
	}
	sqrtLambda := make([]float64, m)
	var negMass, totMass float64
	for i, v := range c {
		lam := real(v)
		totMass += math.Abs(lam)
		if lam < 0 {
			negMass += -lam
			lam = 0
		}
		sqrtLambda[i] = math.Sqrt(lam / float64(m))
	}
	rel := 0.0
	if totMass > 0 {
		rel = negMass / totMass
	}
	if rel > opt.Tolerance && !opt.AllowApprox {
		return nil, fmt.Errorf("%w: relative negative eigenvalue mass %.3g", ErrNotEmbeddable, rel)
	}
	// Precompute the interior-bin scale sqrtLambda[k]/sqrt(2). Multiplying a
	// draw by the precomputed product is bit-identical to the historical
	// sqrtLambda[k] * invSqrt2 * draw (same left-to-right association), so
	// PathInto stays on the golden traces.
	invSqrt2 := 1 / math.Sqrt2
	scale := make([]float64, m/2)
	for k := 1; k < m/2; k++ {
		scale[k] = sqrtLambda[k] * invSqrt2
	}
	// weights is the same scale schedule laid out as one dense half-spectrum
	// vector for the fused synthesis kernel: the kernel's inline multiply
	// weights[k]·draw is the exact multiply fillSpectrum would have performed,
	// so PathRealInto keeps its outputs bit-for-bit.
	weights := make([]float64, m/2+1)
	weights[0] = sqrtLambda[0]
	weights[m/2] = sqrtLambda[m/2]
	copy(weights[1:m/2], scale[1:])
	return &Plan{n: n, m: m, sqrtLambda: sqrtLambda, scale: scale, weights: weights, negativeMass: rel}, nil
}

// Len returns the path length the plan produces.
func (p *Plan) Len() int { return p.n }

// NegativeMass returns the relative mass of eigenvalues that had to be
// clamped to zero; 0 means the synthesis is exact.
func (p *Plan) NegativeMass() float64 { return p.negativeMass }

// Scratch holds the reusable work buffers for PathInto and PathRealInto. The
// zero value is ready to use; buffers grow on demand and are retained, so a
// Scratch reused with one plan performs no steady-state allocations. A
// Scratch also embeds the per-worker generator Batch reseeds for each path.
// A Scratch must not be shared between concurrent calls.
type Scratch struct {
	a   []complex128
	z   []complex128
	src rng.Source
}

// grow sizes the buffers for a plan with circulant size m: a serves both the
// full spectrum (PathInto, length m) and the half-spectrum (PathRealInto,
// length m/2+1); z is the half-length synthesis scratch.
func (s *Scratch) grow(m int) {
	if cap(s.a) < m {
		s.a = make([]complex128, m)
	}
	if cap(s.z) < m/2 {
		s.z = make([]complex128, m/2)
	}
}

// fillSpectrum draws the Hermitian-symmetric Gaussian half-spectrum into
// a[0..m/2] using exactly the historical draw order of Path: the zero bin,
// the Nyquist bin, then (re, im) pairs for k = 1..m/2-1.
func (p *Plan) fillSpectrum(a []complex128, r *rng.Source) {
	h := p.m / 2
	a[0] = complex(p.sqrtLambda[0]*r.Norm(), 0)
	a[h] = complex(p.sqrtLambda[h]*r.Norm(), 0)
	for k := 1; k < h; k++ {
		re := p.scale[k] * r.Norm()
		im := p.scale[k] * r.Norm()
		a[k] = complex(re, im)
	}
}

// PathInto fills dst[0:n] with one sample path, bit-identical to Path (same
// draw order, same floating-point schedule) but without per-call allocations:
// all work happens in s, which is allocated on first use and reused after.
// A nil s allocates a temporary scratch. len(dst) must be at least n.
func (p *Plan) PathInto(dst []float64, s *Scratch, r *rng.Source) {
	if s == nil {
		s = &Scratch{}
	}
	s.grow(p.m)
	m := p.m
	a := s.a[:m]
	p.fillSpectrum(a, r)
	for k := 1; k < m/2; k++ {
		v := a[k]
		a[m-k] = complex(real(v), -imag(v))
	}
	if err := fft.Forward(a); err != nil {
		panic("daviesharte: internal FFT error: " + err.Error())
	}
	out := dst[:p.n]
	for i := range out {
		out[i] = real(a[i])
	}
}

// fillRawSpectrum draws the half-spectrum normal components unscaled, in
// exactly fillSpectrum's draw order. The per-bin √(λ_k/m) scales are applied
// inside the fused synthesis kernel instead (fft.HermitianRealScaled), which
// performs the identical multiplies — so fused synthesis stays bit-identical
// to scaling at fill time while never materializing the scaled spectrum.
func (p *Plan) fillRawSpectrum(a []complex128, r *rng.Source) {
	h := p.m / 2
	a[0] = complex(r.Norm(), 0)
	a[h] = complex(r.Norm(), 0)
	for k := 1; k < h; k++ {
		re := r.Norm()
		im := r.Norm()
		a[k] = complex(re, im)
	}
}

// PathRealInto is PathInto computed through the packed real-input FFT: the
// Hermitian half-spectrum is synthesized with one complex transform of length
// m/2 instead of m, roughly halving the FFT work, with the Davies–Harte
// spectrum scales folded into the kernel's first pass so the scaled spectrum
// is never stored. The normal draws and their order are identical to Path;
// only the transform's rounding differs, so results agree with Path to
// floating-point accuracy (~1e-10 absolute for the path lengths used here)
// but are not bit-identical. Golden-pinned callers use PathInto; replication
// loops use this.
func (p *Plan) PathRealInto(dst []float64, s *Scratch, r *rng.Source) {
	if s == nil {
		s = &Scratch{}
	}
	s.grow(p.m)
	h := p.m / 2
	a := s.a[:h+1]
	p.fillRawSpectrum(a, r)
	if err := fft.HermitianRealScaled(dst[:p.n], a, p.weights, s.z[:h]); err != nil {
		panic("daviesharte: internal FFT error: " + err.Error())
	}
}

// Path generates one sample path of length n (zero mean, unit variance,
// target autocorrelation). It is PathInto plus the output allocation; callers
// on a hot loop should hold a Scratch and call PathInto directly.
func (p *Plan) Path(r *rng.Source) []float64 {
	out := make([]float64, p.n)
	p.PathInto(out, nil, r)
	return out
}

// Batch fills dst[i] with the path generated from seed seeds[i], for every i,
// fanning the work across len(scratch) workers (one arena each; nil entries
// are allocated on first use). Each path is produced by PathRealInto with a
// generator reseeded to rng.New(seeds[i]), so path i depends only on seeds[i]
// and the output is bit-identical for any worker count. With a single scratch
// the batch runs inline on the calling goroutine and performs no steady-state
// allocations.
func (p *Plan) Batch(dst [][]float64, seeds []uint64, scratch []*Scratch) error {
	if len(dst) != len(seeds) {
		return fmt.Errorf("daviesharte: Batch got %d destinations and %d seeds", len(dst), len(seeds))
	}
	if len(scratch) == 0 {
		return errors.New("daviesharte: Batch needs at least one scratch arena")
	}
	for _, d := range dst {
		if len(d) < p.n {
			return fmt.Errorf("daviesharte: Batch destination shorter than path length %d", p.n)
		}
	}
	if len(scratch) == 1 {
		// Inline single-worker loop: no goroutines and no closure, so a
		// reused scratch arena makes the whole batch allocation-free.
		s := scratch[0]
		if s == nil {
			s = &Scratch{}
			scratch[0] = s
		}
		for i := range dst {
			s.src.Reseed(seeds[i])
			p.PathRealInto(dst[i], s, &s.src)
		}
		return nil
	}
	par.For(len(scratch), len(dst), func(worker, i int) {
		s := scratch[worker]
		if s == nil {
			s = &Scratch{}
			scratch[worker] = s
		}
		s.src.Reseed(seeds[i])
		p.PathRealInto(dst[i], s, &s.src)
	})
	return nil
}
