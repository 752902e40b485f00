package conformance

import (
	"context"

	"vbrsim/internal/core"
	"vbrsim/internal/hurst"
	"vbrsim/internal/rng"
)

// hurstCheck gates Hurst-parameter recovery (paper Step 1, Figs. 3-4):
// variance-time and R/S estimates on a synthetic background path must
// bracket the model's H = 0.9. The two graphical estimators carry known
// finite-sample bias (variance-time reads low because the composite's
// exponential head steepens the early variance decay; R/S reads low on
// moderate n), so the intervals are calibrated per estimator rather than
// symmetric around 0.9 — but an SRD-only regression (H -> 0.5) or an
// over-aggressive one (H -> 1) falls far outside both.
type hurstCheck struct{}

func (hurstCheck) Name() string   { return "hurst-recovery" }
func (hurstCheck) Family() string { return "hurst" }

func (c hurstCheck) Run(ctx context.Context, cfg Config) Result {
	res := Result{Name: c.Name(), Family: c.Family(), Passed: true}
	n := 1 << 16
	if cfg.Full {
		n = 1 << 18
	}
	comp, _, _, err := paperModel()
	if err != nil {
		return res.fail(err)
	}
	modelH := comp.Hurst()
	res.note("model H = %.3f (beta = %.3f)", modelH, comp.Beta)

	trunc, err := core.TruncatedPlanForCtx(ctx, comp, 0, 0)
	if err != nil {
		return res.fail(err)
	}
	x := trunc.Path(rng.New(cfg.Seed+30), n)

	vt, err := hurst.VarianceTime(x, hurst.VarianceTimeOptions{})
	if err != nil {
		return res.fail(err)
	}
	rs, err := hurst.RS(x, hurst.RSOptions{})
	if err != nil {
		return res.fail(err)
	}
	res.gate("variance_time_h", vt.H, ">=", 0.70)
	res.gate("variance_time_h", vt.H, "<=", 1.00)
	res.gate("rs_h", rs.H, ">=", 0.75)
	res.gate("rs_h", rs.H, "<=", 1.00)
	avg := (vt.H + rs.H) / 2
	res.gate("combined_h", avg, ">=", 0.78)
	res.gate("combined_h", avg, "<=", 0.98)
	res.note("VT H = %.3f (R² %.3f), R/S H = %.3f (R² %.3f), combined %.3f on n=%d",
		vt.H, vt.R2, rs.H, rs.R2, avg, n)
	return res
}
