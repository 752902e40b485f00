// Package core implements the paper's primary contribution: the unified
// VBR-video traffic model that simultaneously matches an empirical trace's
// marginal distribution and its full (SRD + LRD) autocorrelation structure.
//
// Fit runs the four-step pipeline of Section 3.2 on a bytes-per-frame
// record:
//
//	Step 1 — estimate the Hurst parameter by variance-time and R/S analysis;
//	Step 2 — fit the composite "knee" ACF (exponential head, power-law tail);
//	Step 3 — measure the attenuation factor a by which the histogram-
//	         inversion transform h shrinks correlations;
//	Step 4 — compensate the background ACF (divide the tail by a, re-solve
//	         the head rate via eq. 14) so the foreground ACF lands on target.
//
// FitGOP extends the pipeline to interframe-compressed streams (Section
// 3.3): the I-frame subsequence is modeled as above, its ACF is stretched by
// the GOP period (eq. 15), and a single background process drives three
// per-frame-type transforms h_I, h_P, h_B following the GOP pattern.
package core

import (
	"context"
	"errors"
	"fmt"

	"vbrsim/internal/acf"
	"vbrsim/internal/dist"
	"vbrsim/internal/hosking"
	"vbrsim/internal/hurst"
	"vbrsim/internal/obs"
	"vbrsim/internal/rng"
	"vbrsim/internal/stats"
	"vbrsim/internal/trace"
	"vbrsim/internal/transform"
)

// autoHoskingLimit is the path length above which BackendAuto switches from
// Hosking to Davies-Harte. It is also the plan length the fast path derives
// its truncation from.
const autoHoskingLimit = 4096

// truncPlanLenMin is the smallest exact plan TruncatedPlan builds: long
// enough for the partial correlations of the paper's LRD models to fall
// below the truncation cutoff.
const truncPlanLenMin = 1024

// FitOptions tunes the pipeline.
type FitOptions struct {
	// MaxLag is the largest ACF lag estimated and fitted; default 500 (the
	// paper's plots run to lag 490).
	MaxLag int
	// Knee forces the knee lag K_t; 0 detects it automatically.
	Knee int
	// FreeBeta lets Step 2 fit the power-law exponent from the ACF tail
	// instead of pinning it to 2-2H from the Step 1 Hurst estimate (the
	// paper pins it: H=0.9 -> beta=0.2).
	FreeBeta bool
	// AttenuationLags are the "large lags" of the Step 3 measurement;
	// defaults derive from the knee.
	AttenuationLags []int
	// AttenuationReps is the number of measurement paths; default 200.
	AttenuationReps int
	// SRDComponents is the number of exponentials in the SRD part of the
	// composite ACF (paper eq. 10): 0 or 1 for the paper's single
	// exponential, 2 for the richer two-exponential head.
	SRDComponents int
	// Seed drives the attenuation measurement.
	Seed uint64
}

// Model is a fitted unified model for a single (typeless) frame-size
// process.
type Model struct {
	// H is the combined Hurst estimate of Step 1.
	H float64
	// VT and RS are the two Step 1 estimates with their plot points.
	VT, RS hurst.Estimate
	// Foreground is the Step 2 composite fit r-hat — the ACF the synthetic
	// foreground process must exhibit.
	Foreground acf.Composite
	// Attenuation is the Step 3 factor a in (0,1].
	Attenuation float64
	// Background is the Step 4 compensated ACF driven into the Gaussian
	// background process.
	Background acf.Composite
	// Marginal is the histogram-inversion empirical marginal.
	Marginal *dist.Empirical
	// Transform is the histogram-inversion transform h built on Marginal.
	Transform transform.T
}

// Fit runs Steps 1-4 on a bytes-per-frame record.
func Fit(sizes []float64, opt FitOptions) (*Model, error) {
	return FitCtx(context.Background(), sizes, opt)
}

// FitCtx is Fit with cancellation: ctx is observed by the Step 3 plan build
// and polled between attenuation replications, so a canceled server job
// stops within one replication instead of running the pipeline to the end.
func FitCtx(ctx context.Context, sizes []float64, opt FitOptions) (*Model, error) {
	if len(sizes) < 1024 {
		return nil, errors.New("core: trace too short to fit (need >= 1024 frames)")
	}
	if opt.MaxLag <= 0 {
		opt.MaxLag = 500
	}
	if opt.AttenuationReps <= 0 {
		opt.AttenuationReps = 200
	}

	m := &Model{}
	tr := obs.TracerFrom(ctx)

	// Step 1: Hurst estimation (variance-time + R/S, averaged as the paper
	// does).
	span := tr.Start("fit.hurst")
	h, vt, rs, err := hurst.Combined(sizes)
	span.End(map[string]any{"frames": len(sizes), "h": h})
	if err != nil {
		return nil, fmt.Errorf("core: step 1 (Hurst): %w", err)
	}
	m.H, m.VT, m.RS = h, vt, rs
	if m.H >= 1 {
		m.H = 0.99
	}
	if m.H <= 0.5 {
		return nil, fmt.Errorf("core: estimated H = %.3f is not long-range dependent", m.H)
	}

	// Step 2: composite ACF fit with beta pinned to the Hurst estimate
	// (beta = 2 - 2H) unless FreeBeta.
	span = tr.Start("fit.acf")
	empACF := acfOf(sizes, opt.MaxLag)
	fitOpt := acf.FitOptions{Knee: opt.Knee}
	if !opt.FreeBeta {
		fitOpt.Beta = 2 - 2*m.H
	}
	if opt.SRDComponents >= 2 {
		m.Foreground, err = acf.FitCompositeMulti(empACF, fitOpt)
	} else {
		m.Foreground, err = acf.FitComposite(empACF, fitOpt)
	}
	span.End(map[string]any{"lags": len(empACF) - 1, "knee": m.Foreground.Knee})
	if err != nil {
		return nil, fmt.Errorf(
			"core: step 2 (ACF fit): %w (the ACF stayed positive only up to lag %d — the record may be too short to show its long-range dependence; try a longer trace)",
			err, len(empACF)-1)
	}

	// Marginal and transform (histogram inversion, eq. 7).
	m.Marginal, err = dist.NewEmpirical(sizes)
	if err != nil {
		return nil, err
	}
	m.Transform = transform.New(m.Marginal)

	// Step 3: measure the attenuation factor on the uncompensated model,
	// at large lags, exactly as the paper does.
	lags := opt.AttenuationLags
	if len(lags) == 0 {
		kt := m.Foreground.Knee
		lags = []int{kt + 40, kt + 90, kt + 140}
	}
	maxMeasureLag := 0
	for _, l := range lags {
		if l > maxMeasureLag {
			maxMeasureLag = l
		}
	}
	planLen := 4 * maxMeasureLag
	plan, err := hosking.CachedPlanCtx(ctx, m.Foreground, planLen)
	if err != nil {
		return nil, fmt.Errorf("core: step 3 (attenuation plan): %w", err)
	}
	span = tr.Start("fit.attenuation")
	m.Attenuation, err = transform.MeasureCtx(ctx, plan, m.Transform, planLen, transform.MeasureOptions{
		Lags:         lags,
		Replications: opt.AttenuationReps,
		Seed:         opt.Seed + 0x5eed,
	})
	span.End(map[string]any{
		"replications": opt.AttenuationReps,
		"plan_len":     planLen,
		"attenuation":  m.Attenuation,
	})
	if err != nil {
		return nil, fmt.Errorf("core: step 3 (attenuation): %w", err)
	}

	// Step 4: compensate.
	m.Background, err = acf.Compensate(m.Foreground, m.Attenuation)
	if err != nil {
		return nil, fmt.Errorf("core: step 4 (compensation): %w", err)
	}
	return m, nil
}

// acfOf computes the sample ACF including lag 0.
func acfOf(x []float64, maxLag int) []float64 {
	return trimNonPositiveTail(stats.Autocorrelation(x, maxLag))
}

// trimNonPositiveTail cuts the ACF where it has decayed into noise around
// zero — at the first run of three consecutive non-positive lags — so
// log-space fitting stays well defined. A single noisy dip does not cut the
// tail; at least 16 lags are always kept.
func trimNonPositiveTail(a []float64) []float64 {
	run := 0
	for k := 16; k < len(a); k++ {
		if a[k] <= 0 {
			run++
			if run == 3 {
				return a[:k-2]
			}
		} else {
			run = 0
		}
	}
	return a
}

// MeanRate returns the mean arrival rate (bytes per slot) of the fitted
// foreground process.
func (m *Model) MeanRate() float64 { return m.Marginal.Mean() }

// Plan builds a background-process generation plan of the given length,
// sharing identical plans through the process-wide cache: repeated fits and
// experiment pipelines asking for the same (ACF, length) get the same plan
// back instead of re-running the O(n^2) recursion.
func (m *Model) Plan(n int) (*hosking.Plan, error) {
	return hosking.CachedPlan(m.Background, n)
}

// PlanCtx is Plan with cancellation and tracing threaded through the shared
// cache (a tracer attached to ctx records the plan.acquire span).
func (m *Model) PlanCtx(ctx context.Context, n int) (*hosking.Plan, error) {
	return hosking.CachedPlanCtx(ctx, m.Background, n)
}

// TruncatedPlan builds the truncated-AR(p) fast generation view for paths
// up to length n. The underlying exact plan length is capped at
// autoHoskingLimit — the whole point of truncation is that generation may
// run past the plan. tol is the partial-correlation cutoff (0 selects the
// default); the induced ACF error is measured and exposed on the result.
func (m *Model) TruncatedPlan(n int, tol float64) (*hosking.Truncated, error) {
	return m.TruncatedPlanCtx(context.Background(), n, tol)
}

// TruncatedPlanCtx is TruncatedPlan with cancellation threaded through the
// underlying exact-plan build (the expensive part; truncation itself is
// bounded by the capped plan length).
func (m *Model) TruncatedPlanCtx(ctx context.Context, n int, tol float64) (*hosking.Truncated, error) {
	return TruncatedPlanForCtx(ctx, m.Background, n, tol)
}

// TruncatedPlanForCtx builds the truncated-AR(p) fast view for an arbitrary
// background ACF, sharing exact plans through the process-wide cache. It is
// the entry point the serving layer uses, where sessions are created from
// model specs rather than fitted Models. n is a horizon hint (use 0 for
// unbounded streaming); the exact plan length is clamped exactly as
// Model.TruncatedPlan clamps it, so offline and served generation derive
// bit-identical plans. The view is memoized on the plan, so callers get one
// *Truncated while the plan stays cached and a fresh one after a purge or
// eviction rebuilds it.
func TruncatedPlanForCtx(ctx context.Context, model acf.Model, n int, tol float64) (*hosking.Truncated, error) {
	if n <= 0 {
		n = autoHoskingLimit
	}
	plan, err := hosking.CachedPlanCtx(ctx, model, truncPlanLen(n))
	if err != nil {
		return nil, err
	}
	return plan.Truncate(hosking.TruncateOptions{Tol: tol})
}

// truncPlanLen is the exact-plan length behind a truncated view for a
// horizon of n frames. The truncated generator is horizon-unbounded, so the
// plan only has to be long enough for the partial correlations to die out
// (for the paper's LRD composite that takes a few hundred lags): n is
// clamped to [truncPlanLenMin, autoHoskingLimit].
func truncPlanLen(n int) int {
	return min(max(n, truncPlanLenMin), autoHoskingLimit)
}

// Generate synthesizes n frames of foreground traffic.
func (m *Model) Generate(n int, seed uint64, backend Backend) ([]float64, error) {
	x, err := backgroundPath(m.Background, n, seed, backend)
	if err != nil {
		return nil, err
	}
	return m.Transform.ApplySlice(x), nil
}

// backgroundPath draws one zero-mean unit-variance Gaussian path with the
// given ACF through the backend's generator.
func backgroundPath(model acf.Model, n int, seed uint64, backend Backend) ([]float64, error) {
	g, err := backend.Generator(n)
	if err != nil {
		return nil, err
	}
	return g.Path(context.TODO(), model, n, seed)
}

// ---------------------------------------------------------------------------
// Interframe (I-B-P) modeling, Section 3.3

// GOPModel is the composite interframe model: one background process, three
// per-frame-type transforms, GOP-rescaled autocorrelation (eq. 15).
type GOPModel struct {
	// IModel is the unified model fitted on the I-frame subsequence.
	IModel *Model
	// Background is the I-frame background ACF stretched by the GOP period.
	Background acf.Model
	// TI, TP, TB are the per-frame-type histogram-inversion transforms.
	TI, TP, TB transform.T
	// GOP is the frame-type pattern driven during generation.
	GOP []trace.FrameType
	// KI is the I-frame period (GOP length).
	KI int
	// FrameRate is carried into generated traces.
	FrameRate float64
}

// FitGOP fits the composite model to a typed trace.
func FitGOP(tr *trace.Trace, opt FitOptions) (*GOPModel, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if tr.Types == nil {
		return nil, errors.New("core: FitGOP requires frame-type information")
	}
	ki := tr.GOPLength
	if ki <= 0 {
		ki = len(trace.DefaultGOP)
	}
	iSizes := tr.ByType(trace.FrameI)
	pSizes := tr.ByType(trace.FrameP)
	bSizes := tr.ByType(trace.FrameB)
	if len(iSizes) < 1024 {
		return nil, errors.New("core: too few I frames to fit (need >= 1024)")
	}

	// Step 1 of 3.3: model the I-frame process with the single-type pipeline.
	iModel, err := Fit(iSizes, opt)
	if err != nil {
		return nil, fmt.Errorf("core: I-frame model: %w", err)
	}

	g := &GOPModel{
		IModel:     iModel,
		Background: acf.Scaled{Base: iModel.Background, Factor: ki},
		TI:         iModel.Transform,
		KI:         ki,
		FrameRate:  tr.FrameRate,
	}
	// GOP pattern: reuse the trace's leading pattern when it looks sane,
	// else the default.
	g.GOP = trace.DefaultGOP
	if len(tr.Types) >= ki {
		g.GOP = append([]trace.FrameType(nil), tr.Types[:ki]...)
	}

	// Per-type marginals for P and B frames.
	pm, err := dist.NewEmpirical(pSizes)
	if err != nil {
		return nil, fmt.Errorf("core: P-frame marginal: %w", err)
	}
	bm, err := dist.NewEmpirical(bSizes)
	if err != nil {
		return nil, fmt.Errorf("core: B-frame marginal: %w", err)
	}
	g.TP = transform.New(pm)
	g.TB = transform.New(bm)
	return g, nil
}

// MeanRate returns the mean bytes-per-frame of the composite stream,
// weighting the per-type means by their GOP frequencies.
func (g *GOPModel) MeanRate() float64 {
	var sum float64
	for _, ft := range g.GOP {
		sum += g.transformFor(ft).Target.Mean()
	}
	return sum / float64(len(g.GOP))
}

func (g *GOPModel) transformFor(ft trace.FrameType) transform.T {
	switch ft {
	case trace.FrameI:
		return g.TI
	case trace.FrameP:
		return g.TP
	default:
		return g.TB
	}
}

// Generate synthesizes a typed trace of n frames: one background path X,
// foreground Y_k = h_{type(k)}(X_k) following the GOP pattern.
func (g *GOPModel) Generate(n int, seed uint64, backend Backend) (*trace.Trace, error) {
	x, err := backgroundPath(acf.Clamped{Base: g.Background}, n, seed, backend)
	if err != nil {
		return nil, err
	}
	tr := &trace.Trace{
		Sizes:     make([]float64, n),
		Types:     make([]trace.FrameType, n),
		FrameRate: g.FrameRate,
		GOPLength: g.KI,
	}
	for i := 0; i < n; i++ {
		ft := g.GOP[i%len(g.GOP)]
		tr.Types[i] = ft
		tr.Sizes[i] = g.transformFor(ft).Apply(x[i])
	}
	return tr, nil
}

// ArrivalSource adapts a fitted Model to the queue.PathSource interface:
// each replication generates a fresh background path through the shared
// plan and maps it through the transform. When Fast is set it is used
// instead of Plan, generating in O(p) per step past the truncation order
// (and past the plan length).
type ArrivalSource struct {
	Plan      *hosking.Plan
	Transform transform.T
	Fast      *hosking.Truncated
	// LUT, when non-nil, evaluates the marginal transform through the
	// precomputed table instead of the exact CDF/quantile composition. It
	// must be built from the same Transform; arrivals then deviate from the
	// exact path by at most the table's measured error bound (LUT.MaxError,
	// ~1e-7 relative for the paper's marginal), in exchange for removing
	// the transform from the per-step critical path.
	LUT *transform.LUT
}

// ArrivalPath generates one replication's arrivals.
func (s ArrivalSource) ArrivalPath(r *rng.Source, k int) []float64 {
	buf := make([]float64, k)
	s.ArrivalPathInto(r, buf)
	return buf
}

// ArrivalPathInto generates one replication's arrivals into a caller-owned
// buffer (queue.PathSourceInto): the background path is written in place
// and transformed in place, so steady-state estimation performs no per-
// replication path allocations.
func (s ArrivalSource) ArrivalPathInto(r *rng.Source, buf []float64) {
	if s.Fast != nil {
		s.Fast.Generate(r, buf)
	} else {
		s.Plan.Generate(r, buf)
	}
	if s.LUT != nil {
		s.LUT.ApplyTo(buf, buf)
	} else {
		s.Transform.ApplyTo(buf, buf)
	}
}
