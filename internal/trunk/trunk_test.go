package trunk

import (
	"context"
	"math"
	"testing"

	"vbrsim/internal/modelspec"
	"vbrsim/internal/queue"
	"vbrsim/internal/rng"
	"vbrsim/internal/tes"
)

// mixedSpec is a heterogeneous trunk exercising every engine and ACF
// family: block and truncated Gaussian components, FARIMA, the GOP
// simulator, and TES.
func mixedSpec(seed uint64) *modelspec.TrunkSpec {
	paper := modelspec.Paper()
	return &modelspec.TrunkSpec{
		Seed: seed,
		Components: []modelspec.TrunkComponent{
			{Count: 2, Spec: modelspec.Spec{ACF: paper.ACF, Engine: modelspec.EngineBlock}},
			{Weight: 0.5, Spec: modelspec.Spec{ACF: modelspec.ACFSpec{Kind: modelspec.ACFFarima, D: 0.4}}},
			{Spec: modelspec.Spec{Engine: modelspec.EngineGOP, GOP: &modelspec.GOPSpec{}}},
			{Weight: 2, Spec: modelspec.Spec{Engine: modelspec.EngineTES, TES: &modelspec.TESSpec{Alpha: 0.3}}},
		},
		Marginal: &modelspec.MarginalSpec{Kind: "lognormal", Mu: 9.6, Sigma: 0.4},
	}
}

func openTrunk(t *testing.T, spec *modelspec.TrunkSpec, opt Options) *Trunk {
	t.Helper()
	tr, err := Open(context.Background(), spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	return tr
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestSourceSeedDerivation(t *testing.T) {
	// Distinct ordinals and distinct trunk seeds must give distinct source
	// seeds; the derivation must match the documented SplitMix64 form.
	seen := map[uint64]bool{}
	for _, base := range []uint64{0, 1, 42, ^uint64(0)} {
		for o := 0; o < 64; o++ {
			s := SourceSeed(base, o)
			if seen[s] {
				t.Fatalf("seed collision at base=%d ordinal=%d", base, o)
			}
			seen[s] = true
		}
	}
	if SourceSeed(7, 3) == SourceSeed(7, 4) || SourceSeed(7, 3) == SourceSeed(8, 3) {
		t.Error("derived seeds collide on adjacent inputs")
	}
}

func TestTrunkIsSumOfComponents(t *testing.T) {
	// A trunk must equal the weighted sum of its component streams opened
	// standalone with the derived seeds — the definition of superposition.
	spec := mixedSpec(9)
	tr := openTrunk(t, spec, Options{})
	const n = 3000 // spans multiple fan-out chunks
	got := make([]float64, n)
	tr.Fill(got)

	want := make([]float64, n)
	buf := make([]float64, n)
	ordinal := 0
	for _, c := range spec.Resolved() {
		for rep := 0; rep < c.Count; rep++ {
			s := c.Spec
			s.Seed = SourceSeed(spec.Seed, ordinal)
			frames, err := s.Frames(context.Background(), 0, n, 0)
			if err != nil {
				t.Fatal(err)
			}
			copy(buf, frames)
			for j := range want {
				want[j] += c.Weight * buf[j]
			}
			ordinal++
		}
	}
	if tr.NumSources() != ordinal {
		t.Fatalf("NumSources = %d, want %d", tr.NumSources(), ordinal)
	}
	if !bitsEqual(got, want) {
		t.Fatal("trunk aggregate != weighted sum of standalone component streams")
	}
}

func TestTrunkWorkerCountInvariance(t *testing.T) {
	// Frames must be bit-identical at any worker setting: the fan-out only
	// overlaps CPU time, never changes summation order.
	ref := openTrunk(t, mixedSpec(4), Options{Workers: 1})
	const n = 4096
	want := make([]float64, n)
	ref.Fill(want)
	for _, workers := range []int{2, 4, 9} {
		tr := openTrunk(t, mixedSpec(4), Options{Workers: workers})
		got := make([]float64, n)
		tr.Fill(got)
		if !bitsEqual(got, want) {
			t.Fatalf("workers=%d diverged from workers=1", workers)
		}
	}
}

func TestTrunkSeekResumeBitIdentical(t *testing.T) {
	spec := mixedSpec(12)
	ref := openTrunk(t, spec, Options{})
	const n = 2600
	want := make([]float64, n)
	ref.Fill(want)

	tr := openTrunk(t, spec, Options{Workers: 4})
	buf := make([]float64, 128)
	// Forward, backward, rewind-to-zero, and mid-chunk seek positions.
	for _, from := range []int{2000, 500, 0, 1337, 1100} {
		if err := tr.SeekCtx(context.Background(), from); err != nil {
			t.Fatal(err)
		}
		if tr.Pos() != from {
			t.Fatalf("Pos after seek = %d, want %d", tr.Pos(), from)
		}
		tr.Fill(buf)
		if !bitsEqual(buf, want[from:from+len(buf)]) {
			t.Fatalf("seek to %d diverged from sequential playback", from)
		}
	}
}

func TestTrunkUnevenFillMatchesFill(t *testing.T) {
	// Single frames and reads straddling the fan-out chunk must land on the
	// one-shot Fill trace.
	spec := mixedSpec(3)
	a := openTrunk(t, spec, Options{})
	b := openTrunk(t, spec, Options{})
	const n = 2600
	filled := make([]float64, n)
	a.Fill(filled)
	got := make([]float64, n)
	for off, k := 0, 0; off < n; k++ {
		m := min([]int{1, 3, trunkChunk + 1}[k%3], n-off)
		b.Fill(got[off : off+m])
		off += m
	}
	if !bitsEqual(got, filled) {
		t.Fatal("uneven Fill diverged from one-shot Fill")
	}
	if b.Pos() != n {
		t.Errorf("Pos after %d frames = %d", n, b.Pos())
	}
}

func TestTrunkReseedReplays(t *testing.T) {
	tr := openTrunk(t, mixedSpec(21), Options{})
	first := make([]float64, 1500)
	tr.Fill(first)
	tr.Reseed(21)
	if tr.Pos() != 0 {
		t.Fatalf("Pos after Reseed = %d", tr.Pos())
	}
	again := make([]float64, 1500)
	tr.Fill(again)
	if !bitsEqual(first, again) {
		t.Fatal("Reseed with the trunk seed did not replay")
	}
	tr.Reseed(22)
	other := make([]float64, 1500)
	tr.Fill(other)
	if bitsEqual(first, other) {
		t.Fatal("different trunk seed replayed the same aggregate")
	}
}

func TestTrunkMeanRate(t *testing.T) {
	spec := mixedSpec(1)
	tr := openTrunk(t, spec, Options{})
	var want float64
	ordinal := 0
	for _, c := range spec.Resolved() {
		for rep := 0; rep < c.Count; rep++ {
			s := c.Spec
			s.Seed = SourceSeed(spec.Seed, ordinal)
			st, err := s.OpenCtx(context.Background(), 0)
			if err != nil {
				t.Fatal(err)
			}
			want += c.Weight * st.MeanRate()
			st.Close()
			ordinal++
		}
	}
	if math.Abs(tr.MeanRate()-want) > 1e-9*want {
		t.Errorf("MeanRate = %v, want %v", tr.MeanRate(), want)
	}
	if tr.MeanRate() <= 0 {
		t.Error("non-positive aggregate mean")
	}
}

func TestTrunkFillZeroAllocSteadyState(t *testing.T) {
	spec := &modelspec.TrunkSpec{
		Seed: 8,
		Components: []modelspec.TrunkComponent{
			{Count: 8, Spec: modelspec.Spec{ACF: modelspec.Paper().ACF,
				Marginal: modelspec.Paper().Marginal}},
		},
	}
	tr := openTrunk(t, spec, Options{Workers: 1})
	out := make([]float64, 2048)
	tr.Fill(out) // warm
	allocs := testing.AllocsPerRun(5, func() { tr.Fill(out) })
	if allocs != 0 {
		t.Errorf("steady-state Fill allocates %v times per call", allocs)
	}
}

func TestTrunkOpenErrors(t *testing.T) {
	// Invalid specs must fail at Open, and partially-opened components must
	// be released (covered by the arena gauge staying balanced under -race).
	bad := &modelspec.TrunkSpec{}
	if _, err := Open(context.Background(), bad, Options{}); err == nil {
		t.Error("zero-component trunk opened")
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	big := &modelspec.TrunkSpec{
		Components: []modelspec.TrunkComponent{
			{Count: 2, Spec: modelspec.Spec{ACF: modelspec.ACFSpec{Kind: modelspec.ACFFGN, H: 0.72}}},
		},
	}
	if _, err := Open(canceled, big, Options{}); err == nil {
		// The plan may already be cached, in which case Open succeeds;
		// only a non-cache build observes ctx. Either outcome is fine, but
		// a success must yield a usable trunk.
		tr, err := Open(context.Background(), big, Options{})
		if err != nil {
			t.Fatal(err)
		}
		tr.Close()
	}
}

func TestPathSourceDeterministicAndPooled(t *testing.T) {
	spec := mixedSpec(6)
	src, err := NewPathSource(context.Background(), spec, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	a := make([]float64, 512)
	b := make([]float64, 512)
	src.ArrivalPathInto(rng.New(77), a)
	src.ArrivalPathInto(rng.New(77), b)
	if !bitsEqual(a, b) {
		t.Fatal("same replication rng produced different aggregate paths")
	}
	src.ArrivalPathInto(rng.New(78), b)
	if bitsEqual(a, b) {
		t.Fatal("different replication rngs produced identical paths")
	}
	// The path must equal a trunk re-keyed the same way.
	want := make([]float64, 512)
	tr := openTrunk(t, spec, Options{Workers: 1})
	tr.Reseed(rng.New(77).Uint64())
	tr.Fill(want)
	if !bitsEqual(a, want) {
		t.Fatal("PathSource path != re-keyed trunk fill")
	}
	if src.MeanRate() != tr.MeanRate() {
		t.Errorf("PathSource MeanRate %v != trunk %v", src.MeanRate(), tr.MeanRate())
	}
	// Steady-state replications must not allocate (pool hit + Reseed).
	src.ArrivalPathInto(rng.New(1), a)
	r := rng.New(2)
	allocs := testing.AllocsPerRun(5, func() { src.ArrivalPathInto(r, a) })
	if allocs != 0 {
		t.Errorf("steady-state ArrivalPathInto allocates %v times per call", allocs)
	}
}

func TestPathSourceFeedsQueueEstimator(t *testing.T) {
	// End-to-end: a trunk drives the Lindley recursion through the stock
	// Monte-Carlo estimator and yields a sane overflow probability.
	spec := &modelspec.TrunkSpec{
		Seed: 5,
		Components: []modelspec.TrunkComponent{
			{Count: 4, Spec: modelspec.Spec{ACF: modelspec.Paper().ACF,
				Marginal: modelspec.Paper().Marginal}},
		},
	}
	src, err := NewPathSource(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	mu, err := queue.UtilizationService(src.MeanRate(), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	est, err := queue.EstimateOverflow(src, mu, 2*src.MeanRate(), 256,
		queue.MCOptions{Replications: 400, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if est.P < 0 || est.P > 1 || math.IsNaN(est.P) {
		t.Fatalf("overflow estimate %v out of range", est.P)
	}
}

func TestAggregateMatchesQueueSuperposition(t *testing.T) {
	// The homogeneous single-component Aggregate must reproduce
	// queue.Superposition draw for draw — the guarantee the example ports
	// rely on.
	target, err := (&modelspec.MarginalSpec{Kind: "lognormal", Mu: 9.6, Sigma: 0.4}).Distribution()
	if err != nil {
		t.Fatal(err)
	}
	base := tes.Source{Cfg: tes.Config{Alpha: 0.4, Zeta: 0.5, Marginal: target}}
	const n = 8
	want := queue.Superposition{Base: base, N: n}.ArrivalPath(rng.New(33), 700)
	got := Aggregate{Components: []Component{{Source: base, Count: n}}}.ArrivalPath(rng.New(33), 700)
	if !bitsEqual(got, want) {
		t.Fatal("Aggregate diverged from queue.Superposition")
	}
	// Weighted heterogeneous aggregates must equal the hand-rolled sum.
	r1 := rng.New(9)
	manual := make([]float64, 300)
	p1 := base.ArrivalPath(r1.Split(), 300)
	p2 := base.ArrivalPath(r1.Split(), 300)
	for j := range manual {
		manual[j] = p1[j] + 0.25*p2[j]
	}
	agg := Aggregate{Components: []Component{
		{Source: base},
		{Source: base, Weight: 0.25},
	}}.ArrivalPath(rng.New(9), 300)
	if !bitsEqual(agg, manual) {
		t.Fatal("weighted Aggregate diverged from the hand-rolled sum")
	}
}
