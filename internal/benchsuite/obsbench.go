package benchsuite

import (
	"context"
	"sync"
	"testing"

	"vbrsim/internal/core"
	"vbrsim/internal/daviesharte"
	"vbrsim/internal/dist"
	"vbrsim/internal/hosking"
	"vbrsim/internal/obs"
	"vbrsim/internal/par"
	"vbrsim/internal/queue"
	"vbrsim/internal/transform"
)

// Observability ablations: the cost of the obs registry's hot instruments,
// of a stage span, and — the numbers the <2% overhead gate reads — full
// estimator and DH-batch runs with telemetry off vs on. The Off/On pairs
// keep everything but the instrumentation identical, so their ratio is the
// observability tax on the real hot paths.

const (
	obsMCLen  = 1024 // queue horizon for the telemetry ablation
	obsMCReps = 128  // replications per op
)

var (
	obsOnce sync.Once
	obsSrc  core.ArrivalSource
	obsSvc  float64
	obsBuf  float64
	obsErr  error
)

// getObsSource builds the telemetry-ablation fixture: a truncated-AR
// arrival source over the bench model (the same configuration qsim -fast
// runs), sized so one op is a complete small estimation run.
func getObsSource(b *testing.B) (core.ArrivalSource, float64, float64) {
	obsOnce.Do(func() {
		var plan *hosking.Plan
		plan, obsErr = hosking.NewPlan(benchModel, obsMCLen)
		if obsErr != nil {
			return
		}
		var trunc *hosking.Truncated
		trunc, obsErr = plan.Truncate(hosking.TruncateOptions{ACFTol: fastACFTol})
		if obsErr != nil {
			return
		}
		tr := transform.New(dist.Lognormal{Mu: 9.6, Sigma: 0.4})
		obsSrc = core.ArrivalSource{Plan: plan, Fast: trunc, Transform: tr}
		mean := tr.Target.Mean()
		obsSvc = mean / 0.9
		obsBuf = 30 * mean
	})
	if obsErr != nil {
		b.Fatal(obsErr)
	}
	return obsSrc, obsSvc, obsBuf
}

// BenchRegistryCounterAdd measures the registry's hottest instrument: a
// lock-free CAS float counter add, the cost paid per streamed chunk and
// per observed worker-pool run.
func BenchRegistryCounterAdd(b *testing.B) {
	reg := obs.NewRegistry()
	c := reg.Counter("bench_counter_total", "bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

// BenchSpanStartEndOff measures a span on the nil tracer — the price every
// instrumented call site pays when tracing is not requested.
func BenchSpanStartEndOff(b *testing.B) {
	var tr *obs.Tracer
	for i := 0; i < b.N; i++ {
		span := tr.Start("bench")
		span.End(nil)
	}
}

// BenchSpanStartEndOn measures a live collect-only span, dominated by the
// two runtime.ReadMemStats calls that capture allocation deltas. Spans are
// per pipeline *stage* (a handful per run), so even microseconds here are
// far below the overhead gate.
func BenchSpanStartEndOn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr := obs.NewTracer(nil)
		span := tr.Start("bench")
		span.End(nil)
	}
}

// BenchQueueMCTelemetryOff runs a complete small MC estimation with no
// telemetry: the baseline for the overhead gate.
func BenchQueueMCTelemetryOff(b *testing.B) {
	src, svc, buf := getObsSource(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := queue.EstimateOverflow(src, svc, buf, obsMCLen,
			queue.MCOptions{Replications: obsMCReps, Seed: uint64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchQueueMCTelemetryOn runs the identical estimation with every
// telemetry hook live: a traced context (queue.mc span), a convergence
// meter snapshotting every 16 replications, and a worker-pool observer.
func BenchQueueMCTelemetryOn(b *testing.B) {
	src, svc, buf := getObsSource(b)
	par.SetObserver(func(par.RunStats) {})
	defer par.SetObserver(nil)
	sink := func(obs.Convergence) {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := obs.ContextWithTracer(context.Background(), obs.NewTracer(nil))
		if _, err := queue.EstimateOverflowCtx(ctx, src, svc, buf, obsMCLen,
			queue.MCOptions{Replications: obsMCReps, Seed: uint64(i + 1),
				Progress: sink, ProgressEvery: 16}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchDHPathTelemetryOff generates a Davies-Harte batch with the par
// observer uninstalled (the zero-alloc inline fan-out path).
func BenchDHPathTelemetryOff(b *testing.B) {
	benchDHBatchObserved(b)
}

// BenchDHPathTelemetryOn generates the identical batch with a worker-pool
// observer installed, forcing the observed fan-out path (busy-time
// clocks, in-flight peak tracking). Output stays bit-identical; only the
// bookkeeping differs.
func BenchDHPathTelemetryOn(b *testing.B) {
	par.SetObserver(func(par.RunStats) {})
	defer par.SetObserver(nil)
	benchDHBatchObserved(b)
}

func benchDHBatchObserved(b *testing.B) {
	plan := getDHPlan(b)
	dst := make([][]float64, dhBatchSz)
	seeds := make([]uint64, dhBatchSz)
	for i := range dst {
		dst[i] = make([]float64, dhLen)
		seeds[i] = uint64(i + 1)
	}
	scratch := []*daviesharte.Scratch{new(daviesharte.Scratch)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := plan.Batch(dst, seeds, scratch); err != nil {
			b.Fatal(err)
		}
	}
}
