package conformance

import (
	"context"
	"math"

	"vbrsim/internal/core"
	"vbrsim/internal/daviesharte"
	"vbrsim/internal/farima"
	"vbrsim/internal/rng"
	"vbrsim/internal/stats"
	"vbrsim/internal/tes"
)

// equivalenceCheck gates cross-backend agreement: every generator driven
// from the modelspec.Paper() spec must tell the same statistical story.
// The three composite-ACF backends (hosking, hosking-fast, daviesharte)
// must agree pairwise on mean, variance, and the full autocovariance
// curve; the alternative-model comparators (FARIMA(0,d,0) with d = H - 1/2,
// and TES calibrated to the composite's lag-1 correlation) must reproduce
// the foreground marginal's mean through the same transform.
//
// Because single-path LRD moments scatter widely (var of the sample mean
// decays only like n^(2H-2), about 0.19 at n=4096 for H=0.9), the pairwise
// gates are expressed relative to the measured across-replication standard
// errors plus a small absolute slack, not as fixed constants: a draw-level
// fluctuation sits inside the combined band by construction, while a
// law-level regression (an AR(1)-truncated kernel, a dead LRD tail) shows
// an ACF excess of 0.15+ against every correct backend.
type equivalenceCheck struct {
	// backends overrides the generator list (tests inject perturbed
	// kernels); nil means core's whole generator table.
	backends []core.Generator
}

func (equivalenceCheck) Name() string   { return "cross-backend-equivalence" }
func (equivalenceCheck) Family() string { return "equivalence" }

func (c equivalenceCheck) Run(ctx context.Context, cfg Config) Result {
	res := Result{Name: c.Name(), Family: c.Family(), Passed: true}
	// Short paths, many replications. Pairwise gates compare two
	// independently-seeded noisy curves, and under LRD the per-path
	// autocovariance noise at the far lags shrinks only like n^(2H-2) in
	// the path length but like 1/reps in replications — so for a fixed
	// budget, many short paths buy far more power than a few long ones.
	// At n=1024 x 1024 reps the combined 3-sigma band is ~0.09 at the far
	// lags, small enough that an AR(1)-truncated kernel's ~0.2 LRD
	// divergence trips the gate at any seed, while correct backends sit at
	// zero excess.
	n, reps, maxLag := 1024, 1024, 200
	if cfg.Full {
		n, reps, maxLag = 1024, 2048, 300
	}
	comp, tr, target, err := paperModel()
	if err != nil {
		return res.fail(err)
	}

	backends := c.backends
	if backends == nil {
		backends = core.Generators()
	}
	all := make([]backendStats, len(backends))
	for i, b := range backends {
		// Distinct seed blocks per backend: agreement must come from the
		// law, not from shared draws.
		st, err := measureBackend(ctx, b, comp, nil, 0, n, reps, maxLag, cfg.Seed+50+uint64(i)*1000, cfg.Workers)
		if err != nil {
			return res.fail(err)
		}
		all[i] = st
	}
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			a, b := all[i], all[j]
			pair := a.name + "_vs_" + b.name
			meanBand := 4*math.Sqrt(a.meanSE*a.meanSE+b.meanSE*b.meanSE) + 0.05
			res.gate(pair+"_mean_diff", math.Abs(a.mean-b.mean), "<=", meanBand)
			varBand := 4*math.Sqrt(a.varSE*a.varSE+b.varSE*b.varSE) + 0.05
			res.gate(pair+"_variance_diff", math.Abs(a.variance-b.variance), "<=", varBand)
			// Worst per-lag ACF gap beyond the combined 3-sigma band.
			var excess float64
			for k := 1; k <= maxLag; k++ {
				se := math.Sqrt(a.acfSE[k]*a.acfSE[k] + b.acfSE[k]*b.acfSE[k])
				e := math.Abs(a.acfMean[k]-b.acfMean[k]) - 3*se
				if e > excess || math.IsNaN(e) {
					excess = e
				}
			}
			res.gate(pair+"_acf_excess_beyond_band", excess, "<=", 0.05)
		}
	}

	// FARIMA comparator: same H, same marginal transform; gate the
	// foreground mean averaged over a few paths (its ACF family is
	// intentionally different, so only the marginal is equivalent).
	d := comp.Hurst() - 0.5
	const compN = 4096 // comparator paths: long enough for a stable mean
	fPlan, err := daviesharte.NewPlan(farima.ACF{D: d}, compN, daviesharte.Options{AllowApprox: true})
	if err != nil {
		return res.fail(err)
	}
	const compReps = 4
	var fMean float64
	for r := 0; r < compReps; r++ {
		fx := tr.ApplySlice(fPlan.Path(rng.New(cfg.Seed + 53 + uint64(r))))
		m, _ := stats.MeanVar(fx)
		fMean += m / compReps
	}
	res.gate("farima_mean_rel_err", math.Abs(fMean-target.Mean())/target.Mean(), "<=", 0.15)

	// TES comparator: exact marginal by construction (quantile of a
	// uniform background), lag-1-matched ACF.
	alpha, err := tes.CalibrateAlpha(comp.At(1))
	if err != nil {
		return res.fail(err)
	}
	var tMean float64
	for r := 0; r < compReps; r++ {
		gen, err := tes.New(tes.Config{Alpha: alpha, Zeta: 0.5, Marginal: target}, rng.New(cfg.Seed+57+uint64(r)))
		if err != nil {
			return res.fail(err)
		}
		m, _ := stats.MeanVar(gen.Path(compN))
		tMean += m / compReps
	}
	res.gate("tes_mean_rel_err", math.Abs(tMean-target.Mean())/target.Mean(), "<=", 0.10)
	res.note("foreground means over %d paths: farima %.1f, tes %.1f, target %.1f",
		compReps, fMean, tMean, target.Mean())
	return res
}

// fastBoundCheck gates the truncated-AR fast path against exact Hosking:
// the plan-level ACF-error bound reported by Truncate must stay inside its
// calibrated envelope, and the measured sample-ACF gap between the two
// backends must stay within sampling noise. This is the standing contract
// that lets perf work on the fast path proceed fearlessly — any widening
// of the approximation shows up here before it ships.
type fastBoundCheck struct{}

func (fastBoundCheck) Name() string   { return "hosking-fast-acf-bound" }
func (fastBoundCheck) Family() string { return "equivalence" }

func (c fastBoundCheck) Run(ctx context.Context, cfg Config) Result {
	res := Result{Name: c.Name(), Family: c.Family(), Passed: true}
	n, reps, maxLag := 4096, 32, 200
	if cfg.Full {
		n, reps, maxLag = 16384, 32, 490
	}
	comp, _, _, err := paperModel()
	if err != nil {
		return res.fail(err)
	}
	trunc, err := core.TruncatedPlanForCtx(ctx, comp, 0, 0)
	if err != nil {
		return res.fail(err)
	}
	// The reported bound is the worst |implied-AR ACF - target| over the
	// whole plan window (lags up to 4096). A finite AR order cannot carry a
	// power-law tail that far out — the implied ACF decays quasi-
	// exponentially past the truncation order — so for this LRD target the
	// bound is genuinely ~0.30 at the far end of the window. The gate is an
	// envelope around that calibrated value: a truncation regression
	// (looser tolerance, shorter order) widens it, while the lags that
	// matter for serving (<= maxLag) are covered by the sample-gap gate
	// below.
	bound := trunc.MaxACFError()
	res.gate("plan_acf_error_bound", bound, "<=", 0.35)
	res.note("truncation order %d, plan-level ACF error %.3f over the full %d-lag window", trunc.Order(), bound, trunc.Plan().Len())

	// Same seeds for both backends: the paths differ (different recursion
	// past the truncation order) but the innovation streams match, which
	// cancels most sampling noise out of the comparison.
	exact, err := measureBackend(ctx, generator(core.BackendHosking), comp, nil, 0, n, reps, maxLag, cfg.Seed+60, cfg.Workers)
	if err != nil {
		return res.fail(err)
	}
	fast, err := measureBackend(ctx, generator(core.BackendHoskingFast), comp, nil, 0, n, reps, maxLag, cfg.Seed+60, cfg.Workers)
	if err != nil {
		return res.fail(err)
	}
	// maxExcess is the worst per-lag gap after discounting the 3-sigma
	// sampling band; over the serving lags the truncated AR tracks the
	// exact sampler to well under the absolute slack.
	var maxExcess float64
	for k := 1; k <= maxLag; k++ {
		se := 3 * math.Sqrt(exact.acfSE[k]*exact.acfSE[k]+fast.acfSE[k]*fast.acfSE[k])
		excess := math.Abs(exact.acfMean[k]-fast.acfMean[k]) - se
		if excess > maxExcess || math.IsNaN(excess) {
			maxExcess = excess
		}
	}
	res.gate("sample_acf_gap_beyond_band", maxExcess, "<=", 0.05)
	return res
}
