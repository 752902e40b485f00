// Package conformance is the statistical acceptance harness: a suite of
// deterministic, seeded checks that gate whether the generator backends
// still produce paper-conformant traffic. Unit tests prove the code runs;
// these checks prove the output is still statistically right — the marginal
// matches the fitted distribution (paper Fig. 13), the sample ACF tracks
// the composite target in both the SRD and LRD regimes (Figs. 7-8), the
// Hurst parameter is recovered at H = 0.9 (Figs. 3-4), the backends agree
// with each other, and the importance-sampling overflow estimates agree
// with brute-force Monte Carlo (Fig. 9 / Section 4).
//
// Every check runs from fixed seeds, so a run is bit-reproducible: a
// failure is a regression, never flakiness. Thresholds are deliberately
// loose relative to the calibrated pass values (documented per check) so
// sampling noise never trips them, while kernel-level breakage — a
// reordered recursion, a wrong coefficient, a truncated AR order — lands
// far outside them. See DESIGN.md §8 for the threshold rationale.
package conformance

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"vbrsim/internal/acf"
	"vbrsim/internal/core"
	"vbrsim/internal/dist"
	"vbrsim/internal/fft"
	"vbrsim/internal/modelspec"
	"vbrsim/internal/par"
	"vbrsim/internal/stats"
	"vbrsim/internal/transform"
)

// Config scales the suite.
type Config struct {
	// Full selects paper-scale sample sizes; the default (quick) sizes are
	// chosen so the whole suite finishes in well under a minute.
	Full bool
	// Seed drives every check (each derives sub-seeds at fixed offsets).
	Seed uint64
	// Workers caps the goroutines each check's replication loops fan
	// across; <= 0 selects GOMAXPROCS. Every check is bit-identical for
	// every setting: per-replication randomness is indexed by replication,
	// never by worker, and reductions run in replication order.
	Workers int
}

// DefaultSeed is the suite seed used by cmd/conformance and CI.
const DefaultSeed = 1995 // the paper's publication year

// Mode returns the human-readable run mode.
func (c Config) Mode() string {
	if c.Full {
		return "full"
	}
	return "quick"
}

// Metric is one gated quantity inside a check: a measured value compared
// against a bound.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	// Op is the acceptance comparison: "<=" (value must not exceed Bound),
	// ">=" (must reach it).
	Op    string  `json:"op"`
	Bound float64 `json:"bound"`
	Pass  bool    `json:"pass"`
}

// Result is one check's outcome, JSON-serializable for the CI report.
type Result struct {
	Name    string   `json:"name"`
	Family  string   `json:"family"`
	Passed  bool     `json:"passed"`
	Metrics []Metric `json:"metrics,omitempty"`
	Notes   []string `json:"notes,omitempty"`
	// Err records an infrastructure failure (a check that could not run);
	// it fails the suite like a gate miss.
	Err      string  `json:"error,omitempty"`
	Duration float64 `json:"duration_seconds"`
}

// gate records a metric and folds its verdict into the result.
func (r *Result) gate(name string, value float64, op string, bound float64) bool {
	pass := false
	switch op {
	case "<=":
		pass = value <= bound
	case ">=":
		pass = value >= bound
	}
	// NaN compares false either way, so a NaN value always fails the gate —
	// a silent-NaN kernel regression cannot slip through.
	r.Metrics = append(r.Metrics, Metric{Name: name, Value: value, Op: op, Bound: bound, Pass: pass})
	if !pass {
		r.Passed = false
	}
	return pass
}

func (r *Result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *Result) fail(err error) Result {
	r.Passed = false
	r.Err = err.Error()
	return *r
}

// Check is one named statistical acceptance gate.
type Check interface {
	// Name identifies the check in reports (kebab-case).
	Name() string
	// Family groups related checks: marginal, acf, hurst, equivalence,
	// queue.
	Family() string
	// Run executes the check. Infrastructure failures are reported in
	// Result.Err; a returned Result always carries Name and Family.
	Run(ctx context.Context, cfg Config) Result
}

// Suite returns the standard check suite in its canonical order.
func Suite() []Check {
	return []Check{
		marginalCheck{},
		acfBackendCheck{},
		acfCompensatedCheck{},
		hurstCheck{},
		equivalenceCheck{},
		fastBoundCheck{},
		streamBatchCheck{},
		queueTailCheck{},
		trunkDeterminismCheck{},
		trunkHurstCheck{},
		trunkMuxGainCheck{},
	}
}

// Report is the machine-readable outcome of a suite run (written to
// CONFORMANCE_1.json by cmd/conformance).
type Report struct {
	Mode     string   `json:"mode"`
	Seed     uint64   `json:"seed"`
	Passed   bool     `json:"passed"`
	Checks   int      `json:"checks"`
	Failed   int      `json:"failed"`
	Duration float64  `json:"duration_seconds"`
	Results  []Result `json:"results"`
}

// Hooks observe a suite run for progress reporting. Hooks never influence
// check execution or results; a zero Hooks is valid and free.
type Hooks struct {
	// CheckStart fires before a check runs. index counts from 0 of total.
	CheckStart func(index, total int, name string)
	// CheckDone fires after a check completes with its full result.
	CheckDone func(index, total int, res Result)
}

// RunSuite executes the checks sequentially (deterministic plan-cache
// warmup order) and aggregates the report.
func RunSuite(ctx context.Context, checks []Check, cfg Config) Report {
	return RunSuiteHooks(ctx, checks, cfg, Hooks{})
}

// RunSuiteHooks is RunSuite with per-check progress callbacks.
func RunSuiteHooks(ctx context.Context, checks []Check, cfg Config, hooks Hooks) Report {
	rep := Report{Mode: cfg.Mode(), Seed: cfg.Seed, Passed: true}
	suiteStart := time.Now()
	total := len(checks)
	for i, c := range checks {
		if ctx.Err() != nil {
			r := Result{Name: c.Name(), Family: c.Family()}
			rep.Results = append(rep.Results, r.fail(ctx.Err()))
			rep.Passed = false
			rep.Failed++
			continue
		}
		if hooks.CheckStart != nil {
			hooks.CheckStart(i, total, c.Name())
		}
		start := time.Now()
		r := c.Run(ctx, cfg)
		r.Duration = time.Since(start).Seconds()
		rep.Results = append(rep.Results, r)
		rep.Checks++
		if !r.Passed {
			rep.Passed = false
			rep.Failed++
		}
		if hooks.CheckDone != nil {
			hooks.CheckDone(i, total, r)
		}
	}
	rep.Duration = time.Since(suiteStart).Seconds()
	return rep
}

// WriteJSON writes the indented report.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ---------------------------------------------------------------------------
// Shared model setup and backend plumbing.

// paperModel materializes the modelspec.Paper() preset every check is
// driven from: the continuity-adjusted composite background ACF and the
// lognormal marginal transform.
func paperModel() (acf.Composite, transform.T, dist.Distribution, error) {
	spec := modelspec.Paper()
	model, tr, err := spec.Source()
	if err != nil {
		return acf.Composite{}, transform.T{}, nil, err
	}
	comp, ok := model.(acf.Composite)
	if !ok {
		return acf.Composite{}, transform.T{}, nil, fmt.Errorf("conformance: paper spec ACF is %T, want acf.Composite", model)
	}
	return comp, tr, tr.Target, nil
}

// generator looks a concrete backend up in core's generator table.
func generator(b core.Backend) core.Generator {
	g, err := b.Generator(0)
	if err != nil {
		panic(err) // every caller names a table entry
	}
	return g
}

// backendStats are replication-averaged sample statistics of one backend's
// output.
type backendStats struct {
	name string
	// mean and variance are averaged across replications; meanSE and varSE
	// are their across-replication standard errors (LRD makes single-path
	// moments scatter widely, so agreement gates are expressed relative to
	// these rather than as fixed constants).
	mean, variance float64
	meanSE, varSE  float64
	// acfMean[k] and acfSE[k] are the across-replication mean and standard
	// error of the correlation-scale curve at lag k. For background paths
	// (tr == nil) the curve is the bias-corrected known-mean sample
	// AUTOCOVARIANCE — the process variance is exactly 1, so covariance IS
	// correlation, and with the n/(n-k) correction the estimator is unbiased
	// at every lag (normalizing by the sample variance instead would fold
	// that LRD-noisy denominator into every lag as a shared, strongly
	// lag-correlated error). Foreground paths (tr != nil) have no known
	// variance, so the plain normalized sample ACF is used there.
	acfMean, acfSE []float64
}

// measureBackend generates reps independent paths of length n (seeds
// seed..seed+reps-1) and aggregates their sample statistics up to maxLag.
// The transform, when non-nil, maps the background path to the foreground
// before measuring (processMean then must be the foreground mean).
//
// Replications fan across a worker pool (see Config.Workers). The result
// is bit-identical for every worker count: each replication's seed is its
// replication index offset (never a worker index), per-replication curves
// and moments are deposited into slabs by replication index, and the
// across-replication sums run sequentially in replication order below.
func measureBackend(ctx context.Context, b core.Generator, model acf.Model, tr *transform.T, processMean float64, n, reps, maxLag int, seed uint64, workers int) (backendStats, error) {
	st := backendStats{
		name:    b.Name,
		acfMean: make([]float64, maxLag+1),
		acfSE:   make([]float64, maxLag+1),
	}
	fill, err := b.Prepare(ctx, model, n)
	if err != nil {
		return st, fmt.Errorf("%s: %w", b.Name, err)
	}
	lagN := maxLag + 1
	curves := make([]float64, reps*lagN)
	moments := make([]float64, 2*reps)
	w := par.Workers(workers, reps)
	// Per-worker scratch: the generator's arena, FFT scratch for the sample
	// autocovariance, and the path/foreground buffers.
	arenas := make([]struct {
		gen  core.Arena
		fft  fft.Scratch
		x, y []float64
	}, w)
	defer func() {
		for i := range arenas {
			arenas[i].gen.Close()
		}
	}()
	err = par.ForCtx(ctx, w, reps, func(wk, rep int) error {
		ar := &arenas[wk]
		if ar.x == nil {
			ar.x = make([]float64, n)
			if tr != nil {
				ar.y = make([]float64, n)
			}
		}
		fill(ar.x, &ar.gen, seed+uint64(rep))
		curve := curves[rep*lagN : (rep+1)*lagN]
		x := ar.x
		if tr != nil {
			x = tr.ApplyTo(ar.y, ar.x)
			fft.AutocovarianceKnownMeanInto(curve, x, processMean, &ar.fft)
			// Foreground curves are normalized sample autocorrelations (no
			// known variance to pin the covariance scale).
			if c0 := curve[0]; c0 != 0 {
				for k := range curve {
					curve[k] /= c0
				}
			}
		} else {
			fft.AutocovarianceKnownMeanInto(curve, x, processMean, &ar.fft)
			for k := range curve {
				curve[k] *= float64(n) / float64(n-k)
			}
		}
		m, v := stats.MeanVar(x)
		if tr == nil {
			// Known-mean variance (curve[0] = mean of x²): unbiased at
			// exactly 1 for every correct backend. The sample-mean version
			// is depressed by var(x̄) ~ n^(2H-2), and by *different* amounts
			// for backends whose correlations are truncated at different
			// ranges — a systematic gap that is estimator bias, not backend
			// disagreement.
			v = curve[0]
		}
		moments[2*rep] = m
		moments[2*rep+1] = v
		return nil
	})
	if err != nil {
		return st, err
	}
	acfSq := make([]float64, lagN)
	var meanSq, varSq float64
	for rep := 0; rep < reps; rep++ {
		curve := curves[rep*lagN : (rep+1)*lagN]
		for k := 0; k <= maxLag; k++ {
			st.acfMean[k] += curve[k]
			acfSq[k] += curve[k] * curve[k]
		}
		m, v := moments[2*rep], moments[2*rep+1]
		st.mean += m
		st.variance += v
		meanSq += m * m
		varSq += v * v
	}
	fr := float64(reps)
	st.mean /= fr
	st.variance /= fr
	st.meanSE = math.Sqrt(math.Max(meanSq/fr-st.mean*st.mean, 0) / fr)
	st.varSE = math.Sqrt(math.Max(varSq/fr-st.variance*st.variance, 0) / fr)
	for k := 0; k <= maxLag; k++ {
		st.acfMean[k] /= fr
		varAcf := acfSq[k]/fr - st.acfMean[k]*st.acfMean[k]
		if varAcf < 0 {
			varAcf = 0
		}
		st.acfSE[k] = math.Sqrt(varAcf / fr)
	}
	return st, nil
}
