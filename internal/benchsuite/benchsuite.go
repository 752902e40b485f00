// Package benchsuite defines the fast-path ablation benchmarks once, so
// that both `go test -bench` (via bench_test.go) and the standalone
// cmd/bench JSON reporter run the exact same measurements.
//
// Each benchmark is a flat, self-contained func(*testing.B): cmd/bench
// drives them through testing.Benchmark, which discards sub-benchmark
// results, so none of these use b.Run.
//
// Fixtures (the exact n=20000 plan is ~1.6 GB and takes seconds to build)
// are created lazily and shared across benchmarks via sync.Once.
package benchsuite

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"vbrsim/internal/acf"
	"vbrsim/internal/hosking"
	"vbrsim/internal/rng"
)

// Bench is one named benchmark in the suite.
type Bench struct {
	Name string
	F    func(b *testing.B)
}

// Suite returns the ablation benchmarks in reporting order. Names are
// grouped by ablation: each pair (or cold/warm, serial/parallel duo) is
// meant to be read as a ratio.
func Suite() []Bench {
	return []Bench{
		{"FlatPlanPath/n=4096", BenchFlatPlanPath},
		{"ExactPath/n=20000", BenchExactPath20000},
		{"TruncatedPath/n=20000", BenchTruncatedPath20000},
		{"NewPlanSerial/n=12288", BenchNewPlanSerial},
		{"NewPlanParallel/n=12288", BenchNewPlanParallel},
		{"PlanCacheCold/n=1024", BenchPlanCacheCold},
		{"PlanCacheWarm/n=1024", BenchPlanCacheWarm},
		{"DHPathInto/n=4096", BenchDHPathInto},
		{"DHPathRealInto/n=4096", BenchDHPathRealInto},
		{"DHBatch/n=4096,b=8", BenchDHBatch},
		{"FFTForwardReference/n=8192", BenchFFTForwardReference},
		{"FFTForwardTabled/n=8192", BenchFFTForwardTabled},
		{"FFTRealForward/n=8192", BenchFFTRealForward},
		{"FFTHermitianReal/n=8192", BenchFFTHermitianReal},
		{"TransformApplyExact/n=4096", BenchTransformApplyExact},
		{"TransformApplyLUT/n=4096", BenchTransformApplyLUT},
		{"StreamTruncatedFill/n=4096", BenchStreamTruncatedFill4096},
		{"StreamTruncatedFill/n=16384", BenchStreamTruncatedFill16384},
		{"StreamTruncatedFill/n=65536", BenchStreamTruncatedFill65536},
		{"StreamBlockFill/n=4096", BenchStreamBlockFill4096},
		{"StreamBlockFill/n=16384", BenchStreamBlockFill16384},
		{"StreamBlockFill/n=65536", BenchStreamBlockFill65536},
		{"BatchExactFill/n=4096", BenchBatchExactFill4096},
		{"BatchExactFill/n=16384", BenchBatchExactFill16384},
		{"BatchExactFill/n=65536", BenchBatchExactFill65536},
		{"StreamBlockRefill/n=7831", BenchStreamBlockRefill},
		{"StreamStepMany/s=32,n=1024", BenchStreamStepMany},
		{"StreamStepAffinity/s=32,n=1024", BenchStreamStepAffinity},
		{"TrunkFill/s=4", BenchTrunkFill4},
		{"TrunkFill/s=64", BenchTrunkFill64},
		{"TrunkFill/s=1024", BenchTrunkFill1024},
		{"TrunkFillSerial/s=64", BenchTrunkFillSerial64},
		{"RegistryCounterAdd", BenchRegistryCounterAdd},
		{"SpanStartEnd/off", BenchSpanStartEndOff},
		{"SpanStartEnd/on", BenchSpanStartEndOn},
		{"QueueMCTelemetry/off", BenchQueueMCTelemetryOff},
		{"QueueMCTelemetry/on", BenchQueueMCTelemetryOn},
		{"DHPathTelemetry/off", BenchDHPathTelemetryOff},
		{"DHPathTelemetry/on", BenchDHPathTelemetryOn},
		{"StreamBlockFillStatmon/off", BenchStreamBlockFillStatmonOff},
		{"StreamBlockFillStatmon/on", BenchStreamBlockFillStatmonOn},
	}
}

// benchModel is the fixture background process: FGN with H = 0.8, a
// long-range dependent model squarely in the paper's regime where the
// truncated-AR approximation is hardest (power-law ACF tail).
var benchModel = acf.FGN{H: 0.8}

const (
	flatLen     = 4096
	fastPathLen = 20000
	parallelLen = 12288
	cacheLen    = 1024

	// fastACFTol is the enforced absolute ACF-error budget for the
	// truncated-AR fixture; Truncate fails (and the benchmark aborts) if
	// the frozen AR order cannot hold it over the full plan window.
	fastACFTol = 0.02
)

var (
	flatOnce sync.Once
	flatPlan *hosking.Plan
	flatErr  error

	bigOnce   sync.Once
	bigPlan   *hosking.Plan
	truncated *hosking.Truncated
	bigErr    error
)

func getFlatPlan(b *testing.B) *hosking.Plan {
	flatOnce.Do(func() { flatPlan, flatErr = hosking.NewPlan(benchModel, flatLen) })
	if flatErr != nil {
		b.Fatal(flatErr)
	}
	return flatPlan
}

func getBigPlan(b *testing.B) (*hosking.Plan, *hosking.Truncated) {
	bigOnce.Do(func() {
		bigPlan, bigErr = hosking.NewPlan(benchModel, fastPathLen)
		if bigErr != nil {
			return
		}
		truncated, bigErr = bigPlan.Truncate(hosking.TruncateOptions{ACFTol: fastACFTol})
		if bigErr != nil {
			return
		}
		if e := truncated.MaxACFError(); e > fastACFTol {
			bigErr = fmt.Errorf("benchsuite: truncated plan ACF error %g exceeds budget %g", e, fastACFTol)
		}
	})
	if bigErr != nil {
		b.Fatal(bigErr)
	}
	return bigPlan, truncated
}

// BenchFlatPlanPath generates full paths through the flat (single
// allocation, reversed rows, unit-stride CondMean) plan layout.
func BenchFlatPlanPath(b *testing.B) {
	plan := getFlatPlan(b)
	r := rng.New(1)
	out := make([]float64, flatLen)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan.Generate(r, out)
	}
}

// BenchExactPath20000 is the exact O(n^2) Hosking generation baseline at
// paper-overflow scale.
func BenchExactPath20000(b *testing.B) {
	plan, _ := getBigPlan(b)
	r := rng.New(1)
	out := make([]float64, fastPathLen)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan.Generate(r, out)
	}
}

// BenchTruncatedPath20000 generates the same-length paths through the
// truncated AR(p) fast path (exact below the frozen order, O(p) per step
// above it), with the induced ACF error bounded by fastACFTol.
func BenchTruncatedPath20000(b *testing.B) {
	_, tr := getBigPlan(b)
	r := rng.New(1)
	out := make([]float64, fastPathLen)
	b.ReportMetric(float64(tr.Order()), "ar-order")
	b.ReportMetric(tr.MaxACFError(), "acf-err")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Generate(r, out)
	}
}

// BenchNewPlanSerial builds the Durbin-Levinson plan single-threaded.
func BenchNewPlanSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := hosking.NewPlanOpts(benchModel, parallelLen, hosking.PlanOptions{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchNewPlanParallel builds the same plan with the chunked parallel
// recursion across GOMAXPROCS workers (bit-identical output).
func BenchNewPlanParallel(b *testing.B) {
	workers := runtime.GOMAXPROCS(0)
	for i := 0; i < b.N; i++ {
		if _, err := hosking.NewPlanOpts(benchModel, parallelLen, hosking.PlanOptions{Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchPlanCacheCold measures a cache miss: every iteration purges the
// cache and pays the full Durbin-Levinson build.
func BenchPlanCacheCold(b *testing.B) {
	cache := hosking.NewPlanCache(hosking.DefaultCacheCap)
	for i := 0; i < b.N; i++ {
		cache.Purge()
		if _, err := cache.Get(benchModel, cacheLen); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchPlanCacheWarm measures a cache hit: fingerprint the ACF table and
// return the shared plan.
func BenchPlanCacheWarm(b *testing.B) {
	cache := hosking.NewPlanCache(hosking.DefaultCacheCap)
	if _, err := cache.Get(benchModel, cacheLen); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cache.Get(benchModel, cacheLen); err != nil {
			b.Fatal(err)
		}
	}
}
