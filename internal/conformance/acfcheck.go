package conformance

import (
	"context"
	"math"

	"vbrsim/internal/acf"
	"vbrsim/internal/core"
	"vbrsim/internal/hosking"
	"vbrsim/internal/transform"
)

// bandParams are the shared band-test settings: a lag is "outside the
// band" when the replication-averaged sample curve misses the target by
// more than z standard errors plus an absolute slack (which keeps tiny
// standard errors at long lags from flagging rounding-level deviations).
type bandParams struct {
	z     float64 // normal multiplier on the across-replication stderr
	slack float64 // absolute deviation always tolerated
}

// bandStats summarizes a backend's curve against its target band. Under
// LRD the per-lag deviations are strongly correlated (a handful of
// low-frequency components move every lag together), so the fractions are
// nearly all-or-nothing and maxExcess — the worst deviation after
// discounting the z-sigma band — is the robust headline number: it is ~0
// for a correct backend at any seed and large for a broken one.
type bandStats struct {
	srdFrac   float64 // fraction of lags 1..knee-1 outside the band
	lrdFrac   float64 // fraction of lags knee..maxLag outside the band
	maxDev    float64 // worst raw |curve - target| (reported, not gated)
	maxExcess float64 // worst |curve - target| - z*SE, floored at 0
}

// bandViolations splits lags 1..maxLag at the knee and scores the curve
// against the target.
func bandViolations(st backendStats, target func(k int) float64, knee int, p bandParams) bandStats {
	var out bandStats
	maxLag := len(st.acfMean) - 1
	srdTotal, lrdTotal := 0, 0
	srdBad, lrdBad := 0, 0
	for k := 1; k <= maxLag; k++ {
		dev := math.Abs(st.acfMean[k] - target(k))
		if dev > out.maxDev || math.IsNaN(dev) {
			out.maxDev = dev
		}
		if e := dev - p.z*st.acfSE[k]; e > out.maxExcess || math.IsNaN(e) {
			out.maxExcess = e
		}
		outside := !(dev <= p.z*st.acfSE[k]+p.slack) // NaN counts as outside
		if k < knee {
			srdTotal++
			if outside {
				srdBad++
			}
		} else {
			lrdTotal++
			if outside {
				lrdBad++
			}
		}
	}
	if srdTotal > 0 {
		out.srdFrac = float64(srdBad) / float64(srdTotal)
	}
	if lrdTotal > 0 {
		out.lrdFrac = float64(lrdBad) / float64(lrdTotal)
	}
	return out
}

// acfBackendCheck gates the background-process sample autocovariance of
// every backend against the composite target r̂(k) (paper Figs. 7-8) in
// both regimes: the exponential head below the knee (SRD) and the
// power-law tail at and beyond it (LRD). The band is the
// across-replication 3-sigma interval; a correct backend stays inside it
// at essentially every lag and shows zero excess, while a kernel
// regression (wrong coefficient order, dead LRD tail) pushes the whole
// LRD range out by 0.1-0.2 — calibration: an AR(1)-truncated kernel
// measures maxExcess 0.14-0.20 and lrdFrac 0.5-0.76 across seeds, a
// correct one 0.000 on both.
type acfBackendCheck struct {
	// backends overrides the generator list (tests inject perturbed
	// kernels); nil means core's whole generator table.
	backends []core.Generator
}

func (acfBackendCheck) Name() string   { return "acf-backend-bands" }
func (acfBackendCheck) Family() string { return "acf" }

func (c acfBackendCheck) Run(ctx context.Context, cfg Config) Result {
	res := Result{Name: c.Name(), Family: c.Family(), Passed: true}
	n, reps, maxLag := 4096, 32, 200
	if cfg.Full {
		n, reps, maxLag = 16384, 32, 490
	}
	comp, _, _, err := paperModel()
	if err != nil {
		return res.fail(err)
	}
	backends := c.backends
	if backends == nil {
		backends = core.Generators()
	}
	bands := bandParams{z: 3, slack: 0.01}
	for _, b := range backends {
		st, err := measureBackend(ctx, b, comp, nil, 0, n, reps, maxLag, cfg.Seed+10, cfg.Workers)
		if err != nil {
			return res.fail(err)
		}
		bs := bandViolations(st, comp.At, comp.Knee, bands)
		res.gate(b.Name+"_srd_outside_band_frac", bs.srdFrac, "<=", 0.20)
		res.gate(b.Name+"_lrd_outside_band_frac", bs.lrdFrac, "<=", 0.20)
		res.gate(b.Name+"_max_excess_beyond_band", bs.maxExcess, "<=", 0.05)
		res.note("%s: max raw deviation %.4f (not gated; sampling scatter under LRD)", b.Name, bs.maxDev)
	}
	res.note("bands: target within mean ± %.0f·SE + %.3f over %d replications of n=%d, knee at lag %d",
		bands.z, bands.slack, reps, n, comp.Knee)
	return res
}

// acfCompensatedCheck gates the attenuation-compensated transform path —
// the paper's Steps 3-4 closed loop. The attenuation factor a of the
// marginal transform is measured on the uncompensated model (Step 3,
// eq. 14's premise), the background ACF is boosted by Compensate (Step 4),
// and the generated FOREGROUND — background through h — must then land on
// the original composite target, reproducing the paper's Fig. 7/8
// agreement as a gate. A regression anywhere in measure/compensate/
// transform shows up as a foreground ACF sitting a factor of a (~10-20%)
// below target at every LRD lag.
type acfCompensatedCheck struct{}

func (acfCompensatedCheck) Name() string   { return "acf-compensated-transform" }
func (acfCompensatedCheck) Family() string { return "acf" }

func (c acfCompensatedCheck) Run(ctx context.Context, cfg Config) Result {
	res := Result{Name: c.Name(), Family: c.Family(), Passed: true}
	n, reps, maxLag, measureReps := 4096, 16, 200, 100
	if cfg.Full {
		n, reps, maxLag, measureReps = 16384, 24, 490, 200
	}
	fg, tr, target, err := paperModel()
	if err != nil {
		return res.fail(err)
	}

	// Step 3: measure the attenuation at the paper's "large lags".
	lags := []int{fg.Knee + 40, fg.Knee + 90, fg.Knee + 140}
	planLen := 4 * lags[len(lags)-1]
	measurePlan, err := hosking.CachedPlanCtx(ctx, fg, planLen)
	if err != nil {
		return res.fail(err)
	}
	a, err := transform.MeasureCtx(ctx, measurePlan, tr, planLen, transform.MeasureOptions{
		Lags:         lags,
		Replications: measureReps,
		Seed:         cfg.Seed + 20,
		Workers:      cfg.Workers,
	})
	if err != nil {
		return res.fail(err)
	}
	res.gate("attenuation", a, "<=", 1.0)
	res.gate("attenuation_min", a, ">=", 0.5)
	res.note("measured attenuation a = %.4f over lags %v", a, lags)

	// Step 4: compensate, then verify the foreground lands on target.
	bg, err := acf.Compensate(fg, a)
	if err != nil {
		return res.fail(err)
	}
	// Exact Hosking isolates the transform path.
	st, err := measureBackend(ctx, generator(core.BackendHosking), bg, &tr, target.Mean(), n, reps, maxLag, cfg.Seed+21, cfg.Workers)
	if err != nil {
		return res.fail(err)
	}
	bs := bandViolations(st, fg.At, fg.Knee, bandParams{z: 3, slack: 0.02})
	res.gate("foreground_srd_outside_band_frac", bs.srdFrac, "<=", 0.20)
	res.gate("foreground_lrd_outside_band_frac", bs.lrdFrac, "<=", 0.20)
	res.gate("foreground_max_excess_beyond_band", bs.maxExcess, "<=", 0.06)
	res.note("foreground sample ACF vs composite target over %d replications of n=%d (max raw deviation %.4f)",
		reps, n, bs.maxDev)
	return res
}
