package conformance

import (
	"context"
	"math"

	"vbrsim/internal/core"
	"vbrsim/internal/impsample"
	"vbrsim/internal/queue"
)

// queueTailCheck cross-validates the importance-sampling overflow
// estimator against brute-force Monte Carlo (the paper's Fig. 9 agreement,
// run as a standing gate instead of a one-off experiment). The operating
// point is chosen so plain MC is still feasible — an overflow probability
// around 1e-2 where a few thousand replications give a tight interval —
// and the IS estimate (twisted background, exact likelihood reweighting,
// eqs. 42-48) must land inside the combined confidence interval. A wrong
// likelihood ratio, twist application, or Lindley recursion biases IS by
// whole multiples, far outside the band.
type queueTailCheck struct{}

func (queueTailCheck) Name() string   { return "queue-tail-is-vs-mc" }
func (queueTailCheck) Family() string { return "queue" }

// Queue operating point: utilization, normalized buffer (in mean frame
// sizes, the paper's x-axis unit), horizon, and the background twist m*
// (between the paper's 2.4-at-0.4 and 0.8-at-0.8 valley settings).
const (
	queueUtil    = 0.7
	queueBufNorm = 10.0
	queueTwist   = 1.2
)

func (c queueTailCheck) Run(ctx context.Context, cfg Config) Result {
	res := Result{Name: c.Name(), Family: c.Family(), Passed: true}
	horizon, mcReps, isReps := 256, 4000, 1000
	if cfg.Full {
		horizon, mcReps, isReps = 512, 20000, 2000
	}
	comp, tr, target, err := paperModel()
	if err != nil {
		return res.fail(err)
	}
	trunc, err := core.TruncatedPlanForCtx(ctx, comp, 0, 0)
	if err != nil {
		return res.fail(err)
	}
	meanRate := target.Mean()
	service, err := queue.UtilizationService(meanRate, queueUtil)
	if err != nil {
		return res.fail(err)
	}
	buffer := queueBufNorm * meanRate

	// The MC side runs the serving fast path as production would: truncated
	// AR background plus the table-based transform (exercising the LUT's
	// measured error bound under a statistical gate, against an IS side that
	// evaluates the transform exactly).
	lut, err := tr.NewDefaultLUT()
	if err != nil {
		return res.fail(err)
	}
	src := core.ArrivalSource{Fast: trunc, Transform: tr, LUT: lut}
	mc, err := queue.EstimateOverflowCtx(ctx, src, service, buffer, horizon, queue.MCOptions{
		Replications: mcReps,
		Workers:      cfg.Workers,
		Seed:         cfg.Seed + 40,
	})
	if err != nil {
		return res.fail(err)
	}
	is, err := impsample.EstimateCtx(ctx, impsample.Config{
		FastPlan:     trunc,
		Transform:    tr,
		Service:      service,
		Buffer:       buffer,
		Horizon:      horizon,
		Twist:        queueTwist,
		Replications: isReps,
		Workers:      cfg.Workers,
		Seed:         cfg.Seed + 41,
	})
	if err != nil {
		return res.fail(err)
	}

	// Feasibility first: both estimators must actually observe the event,
	// otherwise the agreement gate below is vacuous.
	res.gate("mc_hits", float64(mc.Hits), ">=", 30)
	res.gate("is_hits", float64(is.Hits), ">=", 30)

	// Agreement: the estimates must fall inside each other's combined
	// 4-sigma interval, and stay within a factor of two (a gross-bias
	// backstop in case both standard errors collapse).
	combinedSE := math.Sqrt(is.StdErr*is.StdErr + mc.StdErr*mc.StdErr)
	res.gate("abs_diff", math.Abs(is.P-mc.P), "<=", 4*combinedSE)
	ratio := math.NaN()
	if mc.P > 0 {
		ratio = is.P / mc.P
	}
	res.gate("is_over_mc_ratio", ratio, ">=", 0.5)
	res.gate("is_over_mc_ratio", ratio, "<=", 2.0)
	res.note("P(Q_%d > %.0f·mean) at util %.1f: MC %.4g ± %.2g (%d/%d hits), IS %.4g ± %.2g (twist %.1f, %.0fx variance reduction)",
		horizon, queueBufNorm, queueUtil, mc.P, mc.StdErr, mc.Hits, mc.Replications,
		is.P, is.StdErr, queueTwist, impsample.VarianceReduction(is))
	return res
}
