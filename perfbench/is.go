package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"vbrsim"
	"vbrsim/internal/rng"
)

// The is-estimate workload: the paper's rare-event pipeline at a buffer
// and utilisation where overflow is rare (p near 8e-4), so plain Monte
// Carlo would need about three million replications for the 2% relative
// error these 3200 twisted ones reach. An estimate takes tens of
// milliseconds, long enough that a burst of hypervisor steal moves few of
// them.
const (
	// isTraceSeed fixes the analyst's trace: the fitted model, and with it
	// the cost of an estimate, must not depend on the run's seed.
	isTraceSeed   = 1
	isTraceFrames = 131072 // enough I frames (~11k) for the knee fit
	isUtil        = 0.4
	isBuffer      = 50 // buffer in mean frame sizes
	isHorizon     = 500
	isTwist       = 2.0
	isReps        = 3200
	// isSeeds is how many estimator seeds a run cycles through, so a run's
	// cost averages over that many sets of replications.
	isSeeds = 16
	// isRelErrBound is the largest relative standard error an estimate may
	// have; a larger one means the twist no longer targets the event. At
	// 800 replications, over 600 seeds, it had median 0.040 and maximum
	// 0.075; 3200 replications halve it.
	isRelErrBound = 0.2
)

// isWorkload runs trace generation, fit and plan truncation in set-up and
// one importance-sampling estimate per op, through the public facade as
// cmd/qsim -fast does.
type isWorkload struct {
	model  *vbrsim.Model
	cfg    vbrsim.ISConfig
	seeds  []uint64 // estimator seeds, derived from the run's seed
	genMs  []float64
	fitMs  []float64
	first  []*vbrsim.QueueResult // first estimate per seed
	traced []uint64              // ops of the traced window
}

func (w *isWorkload) prepare(*env) error { return nil }
func (w *isWorkload) setupReps() int     { return 9 }
func (w *isWorkload) clients() int       { return 1 }
func (w *isWorkload) teardown(*env)      {}

func (w *isWorkload) setup(e *env) error {
	t0 := time.Now()
	tr, err := vbrsim.GenerateMPEGTrace(vbrsim.MPEGTraceConfig{Frames: isTraceFrames, Seed: isTraceSeed})
	if err != nil {
		return err
	}
	t1 := time.Now()
	m, err := vbrsim.Fit(tr.ByType(vbrsim.FrameI), vbrsim.FitOptions{Seed: isTraceSeed})
	if err != nil {
		return err
	}
	w.genMs = append(w.genMs, float64(t1.Sub(t0).Nanoseconds())/1e6)
	w.fitMs = append(w.fitMs, float64(time.Since(t1).Nanoseconds())/1e6)
	trunc, err := m.TruncatedPlan(isHorizon, 0)
	if err != nil {
		return err
	}
	service, err := vbrsim.ServiceForUtilization(m.MeanRate(), isUtil)
	if err != nil {
		return err
	}
	w.model = m
	w.cfg = vbrsim.ISConfig{
		FastPlan:     trunc,
		Transform:    m.Transform,
		Service:      service,
		Buffer:       isBuffer * m.MeanRate(),
		Horizon:      isHorizon,
		Twist:        isTwist,
		Replications: isReps,
		Workers:      runtime.NumCPU(),
	}
	w.seeds = make([]uint64, isSeeds)
	for i := range w.seeds {
		w.seeds[i] = seedFor(e.cfg.Seed, i)
	}
	w.first = make([]*vbrsim.QueueResult, isSeeds)
	return nil
}

// op runs one estimate, cycling through the run's estimator seeds. An
// estimate with the same seed has the same inputs, so it must reproduce
// that seed's first estimate bit for bit.
func (w *isWorkload) op(e *env, c, seq int) (time.Duration, error) {
	var lat time.Duration
	k := seq % isSeeds
	cfg := w.cfg
	cfg.Seed = w.seeds[k]
	err := tracedOp(e, func(op uint64, done func()) error {
		t0 := time.Now()
		res, err := vbrsim.EstimateOverflowIS(cfg)
		lat = time.Since(t0)
		done()
		if err != nil {
			return err
		}
		if e.tr != nil {
			w.traced = append(w.traced, op)
		}
		first := w.first[k]
		if first == nil {
			w.first[k] = &res
			return nil
		}
		if math.Float64bits(res.P) != math.Float64bits(first.P) || res.Hits != first.Hits {
			return fmt.Errorf("estimate %d (seed %d): p=%v hits=%d, first estimate p=%v hits=%d", seq, cfg.Seed, res.P, res.Hits, first.P, first.Hits)
		}
		return nil
	})
	return lat, err
}

func (w *isWorkload) verify(e *env, r *result) {
	ran := 0
	for k, first := range w.first {
		if first == nil {
			continue // a short run need not reach every seed
		}
		ran++
		p, se := first.P, first.StdErr
		r.check(p > 0 && se/p < isRelErrBound,
			"estimate p=%.4g (seed %d) has relative error %.3f (bound %.2f)", p, w.seeds[k], se/p, isRelErrBound)
		if k == 0 {
			e.cfg.logf("estimate p=%.4g rel.err %.3f hits %d/%d (seed %d; each seed's estimate identical across the run)",
				p, se/p, first.Hits, first.Replications, w.seeds[k])
		}
	}
	r.check(ran > 0, "no estimate completed")
}

// layers replays the estimate's replications serially through the public
// calls the estimator makes (Truncated.CondMean, CondVar and PhiRowSum,
// Source.Norm, T.Apply), checks the replay reproduces the served estimate
// bit for bit, and splits a replication's time per step among the layers.
func (w *isWorkload) layers(e *env, r *result, a, b window) {
	cfg := w.cfg
	cfg.Seed = w.seeds[0]
	plan := cfg.FastPlan
	root := rng.New(cfg.Seed)
	buf := make([]float64, cfg.Horizon)
	var sum float64
	hits, steps := 0, 0
	for i := 0; i < isReps; i++ {
		weight, hit, k := replicate(&cfg, root.Split(), buf)
		if hit {
			hits++
			sum += weight
		}
		steps += k
	}
	p := sum / float64(isReps)
	r.check(w.first[0] != nil && math.Float64bits(p) == math.Float64bits(w.first[0].P),
		"replayed estimate p=%v differs from the served one", p)

	// Per-step costs, each timed over the steps of replayed replications.
	var cmNs, normNs, exactNs, sink float64
	timed := 0
	src := rng.New(cfg.Seed ^ 0x5bd1e995)
	for j := 0; j < 64; j++ {
		_, _, k := replicate(&cfg, src.Split(), buf)
		cmNs += timeOnce(func() {
			for i := 0; i < k; i++ {
				sink += plan.CondMean(i, buf[:i])
			}
		})
		normNs += timeOnce(func() {
			for i := 0; i < k; i++ {
				sink += src.Norm()
			}
		})
		exactNs += timeOnce(func() {
			for i := 0; i < k; i++ {
				sink += cfg.Transform.Apply(buf[i] + cfg.Twist)
			}
		})
		timed += k
	}
	if math.IsNaN(sink) {
		r.check(false, "replayed layer calls returned NaN")
	}
	condMean, norm, exact := cmNs/float64(timed), normNs/float64(timed), exactNs/float64(timed)

	// The traced end-to-end figure: worker time per replication step.
	perRep := b.meanLatency() * 1e3 * float64(cfg.Workers) / isReps
	perStep := perRep / (float64(steps) / isReps)
	other := perStep - condMean - norm - exact
	setLayerDefaults(r)
	r.set("impsample.ns_per_rep", perRep, b.ops)
	r.set("impsample.hit_frac", float64(hits)/isReps, isReps)
	r.set("impsample.other_ns_per_step", other, steps)
	r.set("hosking.condmean_ns_per_step", condMean, timed)
	r.set("rng.norm_ns_per_frame", norm, timed)
	r.set("transform.exact_ns_per_step", exact, timed)
	r.set("mpegtrace.generate_ms", median(append([]float64(nil), w.genMs...)), len(w.genMs))
	r.set("core.fit_ms", median(append([]float64(nil), w.fitMs...)), len(w.fitMs))
	cs := e.planStats
	if n := cs.Hits + cs.Misses; n > 0 {
		r.set("hosking.cache_hit_frac", float64(cs.Hits)/float64(n), int(n))
	}
	r.set("hosking.plan_ms", coldModelPlanMs(e, r, w.model.Background, isHorizon), 1)

	// The layers' self times sum to the per-step figure by construction
	// unless the timed calls alone exceed it; that excess is the ratio's
	// distance above 1.
	ratio := (condMean + norm + exact + math.Max(other, 0)) / perStep
	r.set("trace_overhead", b.meanLatency()/a.meanLatency(), b.ops)
	r.set("layer_sum_ratio", ratio, b.ops)
	checkLayerSum(e, ratio)
	e.cfg.logf("traced: %d estimates, %.1f steps/rep, per step: condmean %.1fns norm %.1fns exact %.1fns other %.1fns of %.1fns",
		b.ops, float64(steps)/isReps, condMean, norm, exact, other, perStep)

	// Spans: each traced estimate is an op; the replayed per-step costs
	// hang below the first one, scaled to its replications.
	tr := e.tr
	if len(w.traced) > 0 {
		op := w.traced[0]
		t := tr.now()
		for _, l := range []struct {
			name string
			ns   float64
		}{{"hosking.condmean", condMean}, {"rng.norm", norm}, {"transform.exact", exact}} {
			d := int64(l.ns * float64(steps))
			tr.add(span{ID: tr.id(), Parent: op, Op: op, Name: l.name, Replayed: true, Start: t, End: t + d, Share: 1 / float64(cfg.Workers)})
			t += d
		}
	}
}

// replicate is one twisted replication as the estimator runs it (crossing
// mode, empty initial queue). It returns the likelihood weight, whether
// the buffer overflowed, and the steps simulated; buf receives the
// background path.
func replicate(cfg *vbrsim.ISConfig, r *rng.Source, buf []float64) (float64, bool, int) {
	plan := cfg.FastPlan
	mStar := cfg.Twist
	var logL, w float64
	for i := 0; i < cfg.Horizon; i++ {
		m := plan.CondMean(i, buf[:i])
		v := plan.CondVar(i)
		innov := math.Sqrt(v) * r.Norm()
		x := m + innov
		buf[i] = x
		c := mStar * (1 - plan.PhiRowSum(i))
		if c != 0 {
			logL -= (2*innov*c + c*c) / (2 * v)
		}
		w += cfg.Transform.Apply(x+mStar) - cfg.Service
		if w > cfg.Buffer {
			return math.Exp(logL), true, i + 1
		}
	}
	return 0, false, cfg.Horizon
}

// timeOnce returns fn's duration in ns.
func timeOnce(fn func()) float64 {
	t0 := time.Now()
	fn()
	return float64(time.Since(t0).Nanoseconds())
}
