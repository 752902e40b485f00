package conformance

import (
	"context"
	"math"

	"vbrsim/internal/core"
)

// streamBatchCheck gates the overlapped-block streaming engine against the
// one-shot Davies-Harte batch it is built from — the exactness contract of
// the tentpole: a stream assembled from stitched fixed-size circulant
// blocks must be statistically indistinguishable from a dedicated n-length
// circulant draw of the same model. The pairwise gates mirror
// cross-backend-equivalence (mean, variance, worst per-lag ACF gap beyond
// the combined 3-sigma band) but run at a path length several times the
// conformance engine's block size, so every path crosses block boundaries
// and the stitch correction is squarely inside the measured window.
//
// The second half of the check is the LRD-tail contrast from the issue:
// past the AR order p the truncated-AR serving path's *implied* ACF decays
// quasi-exponentially while the composite target keeps its power-law tail —
// an analytic, deterministic error computable from the Durbin-Levinson row
// (hosking.Truncated.ImpliedACF). The block stream has no such decay: its
// within-block ACF is the exact circulant embedding. The gates pin both
// sides of the contrast: the truncation's analytic tail error must be
// *large* (if it weren't, the block engine would be pointless — and a
// silently shrunken window would hide regressions), while the block
// stream's measured tail deviation beyond the sampling band must stay at
// noise level, an order of magnitude below it.
type streamBatchCheck struct{}

func (streamBatchCheck) Name() string   { return "stream-vs-batch" }
func (streamBatchCheck) Family() string { return "equivalence" }

func (c streamBatchCheck) Run(ctx context.Context, cfg Config) Result {
	res := Result{Name: c.Name(), Family: c.Family(), Passed: true}
	// The tail window must reach past the AR order (361 for the paper
	// model) to see the truncation decay, and the path length must cover
	// a few conformance-engine blocks (block size 2048 - 361 = 1687) so
	// boundary stitching is exercised at every gated lag.
	n, reps, maxLag := 4096, 48, 720
	if cfg.Full {
		n, reps, maxLag = 8192, 64, 900
	}
	comp, _, _, err := paperModel()
	if err != nil {
		return res.fail(err)
	}

	bks := coreBackends()
	batch, stream := bks[2], bks[3] // daviesharte, streamblock
	// Distinct seed blocks: agreement must come from the law, not draws.
	bst, err := measureBackend(ctx, batch, comp, nil, 0, n, reps, maxLag, cfg.Seed+70, cfg.Workers)
	if err != nil {
		return res.fail(err)
	}
	sst, err := measureBackend(ctx, stream, comp, nil, 0, n, reps, maxLag, cfg.Seed+71, cfg.Workers)
	if err != nil {
		return res.fail(err)
	}
	meanBand := 4*math.Sqrt(bst.meanSE*bst.meanSE+sst.meanSE*sst.meanSE) + 0.05
	res.gate("stream_vs_batch_mean_diff", math.Abs(bst.mean-sst.mean), "<=", meanBand)
	varBand := 4*math.Sqrt(bst.varSE*bst.varSE+sst.varSE*sst.varSE) + 0.05
	res.gate("stream_vs_batch_variance_diff", math.Abs(bst.variance-sst.variance), "<=", varBand)
	var excess float64
	for k := 1; k <= maxLag; k++ {
		se := math.Sqrt(bst.acfSE[k]*bst.acfSE[k] + sst.acfSE[k]*sst.acfSE[k])
		e := math.Abs(bst.acfMean[k]-sst.acfMean[k]) - 3*se
		if e > excess || math.IsNaN(e) {
			excess = e
		}
	}
	res.gate("stream_vs_batch_acf_excess_beyond_band", excess, "<=", 0.05)

	// LRD-tail contrast. The analytic side needs no sampling at all: the
	// truncated AR's implied ACF is a deterministic recursion off the
	// frozen Durbin-Levinson row, and its gap to the composite target IS
	// the approximation the block engine removes.
	trunc, err := core.TruncatedPlanForCtx(ctx, comp, 0, 0)
	if err != nil {
		return res.fail(err)
	}
	implied := trunc.ImpliedACF(maxLag + 1)
	order := trunc.Order()
	var truncTailErr, streamTailExcess float64
	for k := order + 1; k <= maxLag; k++ {
		if d := math.Abs(implied[k] - comp.At(k)); d > truncTailErr {
			truncTailErr = d
		}
		e := math.Abs(sst.acfMean[k]-comp.At(k)) - 3*sst.acfSE[k]
		if e > streamTailExcess || math.IsNaN(e) {
			streamTailExcess = e
		}
	}
	// Calibration at the default seed: truncTailErr ~ 0.10 over lags
	// 362..720 (the power-law tail the AR(361) recursion cannot carry),
	// streamTailExcess 0.000. The >= gate keeps the contrast honest; the
	// <= gate is the actual conformance bound on the block stream.
	res.gate("truncated_implied_tail_err", truncTailErr, ">=", 0.05)
	res.gate("stream_tail_excess_beyond_band", streamTailExcess, "<=", 0.02)
	res.note("LRD tail over lags %d..%d: truncated-AR analytic error %.4f, block-stream measured excess %.4f",
		order+1, maxLag, truncTailErr, streamTailExcess)
	res.note("stream paths cross block boundaries every %d frames (engine total %d, order %d)",
		streamBlockTotal-order, streamBlockTotal, order)
	return res
}
