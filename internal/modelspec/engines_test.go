package modelspec

import (
	"context"
	"math"
	"strings"
	"testing"

	"vbrsim/internal/dist"
	"vbrsim/internal/mpegtrace"
	"vbrsim/internal/rng"
	"vbrsim/internal/tes"
)

func mustOpen(t *testing.T, s *Spec) *Stream {
	t.Helper()
	st, err := s.OpenCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	return st
}

func TestGOPEngineMatchesMpegtrace(t *testing.T) {
	// The gop engine is the §3.3 simulator behind the spec wire format: its
	// frames must be the mpegtrace sizes bit for bit.
	s := &Spec{Seed: 31, Engine: EngineGOP, GOP: &GOPSpec{}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	tr, err := mpegtrace.Generate(mpegtrace.Config{Frames: 4096, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	st := mustOpen(t, s)
	got := make([]float64, 4096)
	st.Fill(got)
	for i := range got {
		if got[i] != tr.Sizes[i] {
			t.Fatalf("frame %d: %v != mpegtrace %v", i, got[i], tr.Sizes[i])
		}
	}
	if st.Order() != 0 || st.MaxACFError() != 0 {
		t.Errorf("gop engine reported a plan: order=%d err=%v", st.Order(), st.MaxACFError())
	}
	cfg, _ := s.GOP.Config(31)
	if st.MeanRate() != cfg.MeanBytesPerFrame() {
		t.Errorf("MeanRate = %v, want analytic %v", st.MeanRate(), cfg.MeanBytesPerFrame())
	}
}

func TestTESEngineMatchesGenerator(t *testing.T) {
	s := &Spec{
		Seed:     7,
		Engine:   EngineTES,
		TES:      &TESSpec{Alpha: 0.3},
		Marginal: &MarginalSpec{Kind: "lognormal", Mu: 9.6, Sigma: 0.4},
	}
	st := mustOpen(t, s)
	target, err := s.Marginal.Distribution()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := tes.New(tes.Config{Alpha: 0.3, Zeta: 0.5, Marginal: target}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, 4096)
	st.Fill(got)
	for i := range got {
		if want := ref.Next(); got[i] != want {
			t.Fatalf("frame %d: %v != tes %v", i, got[i], want)
		}
	}
	if st.MeanRate() != target.Mean() {
		t.Errorf("MeanRate = %v, want marginal mean %v", st.MeanRate(), target.Mean())
	}
}

func TestACFKindFarimaAndFGNStreams(t *testing.T) {
	// FARIMA and FGN backgrounds run through both Gaussian engines via the
	// shared plan cache.
	kinds := []ACFSpec{
		{Kind: ACFFarima, D: 0.4},
		{Kind: ACFFarima, D: 0.3, Phi: 0.5, Theta: -0.2},
		{Kind: ACFFGN, H: 0.9},
	}
	for _, a := range kinds {
		for _, engine := range []string{EngineTruncated, EngineBlock} {
			s := &Spec{Seed: 3, ACF: a, Engine: engine,
				Marginal: &MarginalSpec{Kind: "lognormal", Mu: 9.6, Sigma: 0.4}}
			st := mustOpen(t, s)
			out := make([]float64, 256)
			st.Fill(out)
			for i, v := range out {
				if math.IsNaN(v) || v <= 0 {
					t.Fatalf("kind=%s engine=%s: frame %d = %v", a.Kind, engine, i, v)
				}
			}
			if st.Order() <= 0 {
				t.Errorf("kind=%s engine=%s: order %d", a.Kind, engine, st.Order())
			}
		}
	}
}

func TestSpecValidationRejectsMixedConfigs(t *testing.T) {
	lognorm := &MarginalSpec{Kind: "lognormal", Mu: 9.6, Sigma: 0.4}
	bad := []struct {
		name string
		spec Spec
	}{
		{"gop without config", Spec{Engine: EngineGOP}},
		{"gop with acf", Spec{Engine: EngineGOP, GOP: &GOPSpec{}, ACF: Paper().ACF}},
		{"gop with marginal", Spec{Engine: EngineGOP, GOP: &GOPSpec{}, Marginal: lognorm}},
		{"gop bad pattern", Spec{Engine: EngineGOP, GOP: &GOPSpec{Pattern: "IXB"}}},
		{"gop bad alpha", Spec{Engine: EngineGOP, GOP: &GOPSpec{SceneAlpha: 2.5}}},
		{"gop config without engine", Spec{ACF: Paper().ACF, GOP: &GOPSpec{}}},
		{"tes without config", Spec{Engine: EngineTES, Marginal: lognorm}},
		{"tes without marginal", Spec{Engine: EngineTES, TES: &TESSpec{Alpha: 0.3}}},
		{"tes bad alpha", Spec{Engine: EngineTES, TES: &TESSpec{Alpha: 1.5}, Marginal: lognorm}},
		{"tes with acf", Spec{Engine: EngineTES, TES: &TESSpec{Alpha: 0.3}, Marginal: lognorm, ACF: Paper().ACF}},
		{"tes config without engine", Spec{ACF: Paper().ACF, TES: &TESSpec{Alpha: 0.3}}},
		{"farima with composite fields", Spec{ACF: ACFSpec{Kind: ACFFarima, D: 0.4, Weights: []float64{1}, Rates: []float64{0.1}}}},
		{"composite with farima fields", Spec{ACF: ACFSpec{Weights: []float64{1}, Rates: []float64{0.1}, L: 1, Beta: 0.2, Knee: 10, D: 0.4}}},
		{"fgn out of range", Spec{ACF: ACFSpec{Kind: ACFFGN, H: 1.2}}},
		{"unknown acf kind", Spec{ACF: ACFSpec{Kind: "warp"}}},
		{"unknown engine", Spec{ACF: Paper().ACF, Engine: "warp"}},
	}
	for _, tc := range bad {
		if err := tc.spec.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestTrunkSpecValidate(t *testing.T) {
	paper := Paper()
	good := TrunkSpec{
		Seed: 9,
		Components: []TrunkComponent{
			{Count: 4, Spec: Spec{ACF: paper.ACF, Engine: EngineBlock}},
			{Weight: 0.5, Spec: Spec{ACF: ACFSpec{Kind: ACFFarima, D: 0.4}}},
			{Spec: Spec{Engine: EngineGOP, GOP: &GOPSpec{}}},
			{Spec: Spec{Engine: EngineTES, TES: &TESSpec{Alpha: 0.3}}},
		},
		Marginal: &MarginalSpec{Kind: "lognormal", Mu: 9.6, Sigma: 0.4},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("good trunk rejected: %v", err)
	}
	if n := good.NumSources(); n != 7 {
		t.Errorf("NumSources = %d, want 7", n)
	}
	res := good.Resolved()
	if res[0].Weight != 1 || res[0].Count != 4 {
		t.Errorf("resolved[0] = %+v", res[0])
	}
	// The shared marginal is inherited by the Gaussian and tes components
	// but never by gop (which generates its own marginal).
	if res[1].Spec.Marginal == nil || res[3].Spec.Marginal == nil {
		t.Error("shared marginal not inherited")
	}
	if res[2].Spec.Marginal != nil {
		t.Error("gop component inherited a marginal")
	}

	bad := []struct {
		name  string
		trunk TrunkSpec
		want  string
	}{
		{"zero components", TrunkSpec{}, "zero sources"},
		{"negative weight", TrunkSpec{Components: []TrunkComponent{{Weight: -1, Spec: Spec{ACF: paper.ACF}}}}, "negative weight"},
		{"negative count", TrunkSpec{Components: []TrunkComponent{{Count: -2, Spec: Spec{ACF: paper.ACF}}}}, "negative count"},
		{"pinned component seed", TrunkSpec{Components: []TrunkComponent{{Spec: Spec{Seed: 5, ACF: paper.ACF}}}}, "derived from the trunk seed"},
		{"invalid component", TrunkSpec{Components: []TrunkComponent{{Spec: Spec{Engine: "warp", ACF: paper.ACF}}}}, "unknown engine"},
		{"too many sources", TrunkSpec{Components: []TrunkComponent{{Count: MaxTrunkSources + 1, Spec: Spec{ACF: paper.ACF}}}}, "cap"},
		{"total over cap", TrunkSpec{Components: []TrunkComponent{
			{Count: MaxTrunkSources / 2, Spec: Spec{ACF: paper.ACF}},
			{Count: MaxTrunkSources/2 + 1, Spec: Spec{ACF: paper.ACF}},
		}}, "cap"},
		// Counts whose sum wraps int64 to 0 must not slip past the cap.
		{"count overflow", TrunkSpec{Components: []TrunkComponent{
			{Count: 1 << 62, Spec: Spec{ACF: paper.ACF}},
			{Count: 1 << 62, Spec: Spec{ACF: paper.ACF}},
			{Count: 1 << 62, Spec: Spec{ACF: paper.ACF}},
			{Count: 1 << 62, Spec: Spec{ACF: paper.ACF}},
		}}, "cap"},
	}
	for _, tc := range bad {
		err := tc.trunk.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestParseTrunkRejectsUnknownFields(t *testing.T) {
	if _, err := ParseTrunk([]byte(`{"components":[{"spec":{"acf":{"weights":[1],"rates":[0.1],"l":1,"beta":0.2,"knee":10}}}],"sources":3}`)); err == nil {
		t.Error("unknown trunk field accepted")
	}
	if _, err := ParseTrunk([]byte(`{"components":[]}`)); err == nil {
		t.Error("zero-source trunk accepted")
	}
}

func TestEmpiricalMeanRate(t *testing.T) {
	sample := []float64{100, 200, 300, 400}
	s := &Spec{Seed: 1, ACF: Paper().ACF, Marginal: &MarginalSpec{Kind: "empirical", Sample: sample}}
	st := mustOpen(t, s)
	d, err := dist.NewEmpirical(sample)
	if err != nil {
		t.Fatal(err)
	}
	if st.MeanRate() != d.Mean() {
		t.Errorf("MeanRate = %v, want %v", st.MeanRate(), d.Mean())
	}
}
