package conformance

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"vbrsim/internal/acf"
	"vbrsim/internal/core"
	"vbrsim/internal/rng"
)

func TestSuiteMetadata(t *testing.T) {
	checks := Suite()
	if len(checks) < 5 {
		t.Fatalf("suite has %d checks, want at least the five families", len(checks))
	}
	seen := map[string]bool{}
	families := map[string]bool{}
	for _, c := range checks {
		if c.Name() == "" || c.Family() == "" {
			t.Fatalf("check %T has empty name or family", c)
		}
		if seen[c.Name()] {
			t.Fatalf("duplicate check name %q", c.Name())
		}
		seen[c.Name()] = true
		families[c.Family()] = true
	}
	for _, want := range []string{"marginal", "acf", "hurst", "equivalence", "queue"} {
		if !families[want] {
			t.Errorf("suite missing family %q", want)
		}
	}
}

func TestGateNaNAlwaysFails(t *testing.T) {
	var r Result
	r.Passed = true
	if r.gate("nan_le", math.NaN(), "<=", 1) {
		t.Error("NaN passed a <= gate")
	}
	if r.gate("nan_ge", math.NaN(), ">=", 0) {
		t.Error("NaN passed a >= gate")
	}
	if r.Passed {
		t.Error("result still passed after NaN gates")
	}
}

// TestQuickSuitePassesAndIsDeterministic runs the real quick suite twice and
// requires (a) every check passes on main and (b) the two reports are
// metric-for-metric identical — the suite's determinism contract.
func TestQuickSuitePassesAndIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("quick suite run skipped in -short mode (CI runs cmd/conformance directly)")
	}
	ctx := context.Background()
	cfg := Config{Seed: DefaultSeed}
	first := RunSuite(ctx, Suite(), cfg)
	if !first.Passed {
		for _, r := range first.Results {
			if !r.Passed {
				t.Errorf("check %s failed: metrics %+v err %q", r.Name, r.Metrics, r.Err)
			}
		}
		t.Fatal("quick suite must pass on main")
	}
	second := RunSuite(ctx, Suite(), cfg)
	if got, want := metricFingerprint(t, second), metricFingerprint(t, first); got != want {
		t.Fatalf("suite is not deterministic:\nfirst:  %s\nsecond: %s", want, got)
	}
}

// metricFingerprint serializes everything except wall-clock durations.
func metricFingerprint(t *testing.T, rep Report) string {
	t.Helper()
	var sb strings.Builder
	for _, r := range rep.Results {
		sb.WriteString(r.Name)
		for _, m := range r.Metrics {
			b, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			sb.Write(b)
		}
		for _, n := range r.Notes {
			sb.WriteString(n)
		}
	}
	return sb.String()
}

// ar1Backend is a deliberately broken kernel: the composite ACF truncated
// to AR order 1. Below the knee it is nearly indistinguishable from the
// target (the SRD head is exponential with the same lag-1 rate), so only a
// check that actually probes the LRD regime can reject it. It is injected
// as a generator-table entry, exactly as core declares the real ones.
func ar1Backend() core.Generator {
	return core.Generator{Name: "ar1-perturbed", Prepare: func(_ context.Context, model acf.Model, _ int) (core.Fill, error) {
		r1 := model.At(1)
		c := math.Sqrt(1 - r1*r1)
		return func(x []float64, _ *core.Arena, seed uint64) {
			r := rng.New(seed)
			x[0] = r.Norm()
			for i := 1; i < len(x); i++ {
				x[i] = r1*x[i-1] + c*r.Norm()
			}
		}, nil
	}}
}

// TestPerturbedKernelFailsACFCheck is the suite's sensitivity proof: an
// AR(1)-truncated kernel must fail the ACF band check.
func TestPerturbedKernelFailsACFCheck(t *testing.T) {
	check := acfBackendCheck{backends: []core.Generator{ar1Backend()}}
	res := check.Run(context.Background(), Config{Seed: DefaultSeed})
	if res.Err != "" {
		t.Fatalf("check errored instead of gating: %s", res.Err)
	}
	if res.Passed {
		t.Fatalf("AR(1)-perturbed kernel passed the ACF band check: %+v", res.Metrics)
	}
	// The failure must come from the LRD regime, where the perturbation
	// lives.
	var lrdFailed bool
	for _, m := range res.Metrics {
		if strings.Contains(m.Name, "lrd") && !m.Pass {
			lrdFailed = true
		}
		if strings.Contains(m.Name, "srd") && !m.Pass {
			t.Errorf("SRD gate %s tripped; the AR(1) perturbation should be invisible below the knee (value %.4f bound %.4f)",
				m.Name, m.Value, m.Bound)
		}
	}
	if !lrdFailed {
		t.Errorf("no LRD gate tripped: %+v", res.Metrics)
	}
}

// TestPerturbedKernelFailsEquivalenceCheck: the same broken kernel must
// disagree with exact Hosking in the cross-backend comparison.
func TestPerturbedKernelFailsEquivalenceCheck(t *testing.T) {
	check := equivalenceCheck{backends: []core.Generator{generator(core.BackendHosking), ar1Backend()}}
	res := check.Run(context.Background(), Config{Seed: DefaultSeed})
	if res.Err != "" {
		t.Fatalf("check errored instead of gating: %s", res.Err)
	}
	if res.Passed {
		t.Fatalf("AR(1)-perturbed kernel passed cross-backend equivalence: %+v", res.Metrics)
	}
	var acfGateFailed bool
	for _, m := range res.Metrics {
		if strings.Contains(m.Name, "acf_excess") && !m.Pass {
			acfGateFailed = true
		}
	}
	if !acfGateFailed {
		t.Errorf("expected the pairwise ACF gate to trip, metrics: %+v", res.Metrics)
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	rep := Report{
		Mode: "quick", Seed: 7, Passed: false, Checks: 1, Failed: 1,
		Results: []Result{{
			Name: "x", Family: "acf", Passed: false,
			Metrics: []Metric{{Name: "m", Value: 2, Op: "<=", Bound: 1, Pass: false}},
			Notes:   []string{"note"},
		}},
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Mode != rep.Mode || back.Seed != rep.Seed || len(back.Results) != 1 ||
		back.Results[0].Metrics[0].Bound != 1 {
		t.Fatalf("round trip mismatch: %+v", back)
	}
}

// TestRunSuiteCancelledContext: a cancelled context must fail the suite
// with per-check errors, not hang or panic.
func TestRunSuiteCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep := RunSuite(ctx, Suite(), Config{Seed: 1})
	if rep.Passed {
		t.Fatal("suite passed under a cancelled context")
	}
	if rep.Failed == 0 {
		t.Fatal("no checks recorded as failed under a cancelled context")
	}
}

// TestMeasureBackendWorkerInvariant is the suite-side half of the
// worker-invariance contract: the replication-band statistics behind the
// ACF and equivalence checks must be bit-identical for 1 and 8 workers
// (seeds are replication-indexed, reductions run in replication order).
func TestMeasureBackendWorkerInvariant(t *testing.T) {
	comp, tr, target, err := paperModel()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, b := range core.Generators() {
		one, err := measureBackend(ctx, b, comp, nil, 0, 1024, 12, 100, 77, 1)
		if err != nil {
			t.Fatal(err)
		}
		eight, err := measureBackend(ctx, b, comp, nil, 0, 1024, 12, 100, 77, 8)
		if err != nil {
			t.Fatal(err)
		}
		requireSameStats(t, b.Name, one, eight)
	}
	// Foreground path (transform applied before measuring) too.
	b := generator(core.BackendHosking)
	one, err := measureBackend(ctx, b, comp, &tr, target.Mean(), 1024, 8, 100, 78, 1)
	if err != nil {
		t.Fatal(err)
	}
	eight, err := measureBackend(ctx, b, comp, &tr, target.Mean(), 1024, 8, 100, 78, 8)
	if err != nil {
		t.Fatal(err)
	}
	requireSameStats(t, b.Name+"-foreground", one, eight)
}

func requireSameStats(t *testing.T, name string, a, b backendStats) {
	t.Helper()
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !same(a.mean, b.mean) || !same(a.variance, b.variance) ||
		!same(a.meanSE, b.meanSE) || !same(a.varSE, b.varSE) {
		t.Fatalf("%s: moments differ across worker counts: %+v vs %+v", name, a, b)
	}
	for k := range a.acfMean {
		if !same(a.acfMean[k], b.acfMean[k]) || !same(a.acfSE[k], b.acfSE[k]) {
			t.Fatalf("%s: ACF curve differs at lag %d: %v/%v vs %v/%v",
				name, k, a.acfMean[k], a.acfSE[k], b.acfMean[k], b.acfSE[k])
		}
	}
}
