// Package modelspec defines the JSON wire format for traffic-model
// specifications — the contract between the serving layer (cmd/trafficd),
// its clients, and the offline tools. A spec names a Gaussian background
// autocorrelation (the paper's composite knee model, eqs. 10-12) plus a
// foreground marginal, which together determine the synthetic bytes-per-
// frame process: X ~ N(0,1) with the given ACF, Y_k = h(X_k) (eq. 7).
//
// Two producers write specs: hand-written composite parameters (the curl
// path), and cmd/fitmodel -json, which exports a fitted core.Model — the
// compensated background ACF, the empirical marginal sample, and the fit
// metadata (H, attenuation, foreground ACF) for the record.
//
// The package also implements Stream, the deterministic generation loop
// shared by trafficd sessions and offline verification: the same spec and
// seed yield bit-identical frames whether they are streamed over HTTP or
// generated in-process, because both run exactly this code against the
// process-wide plan cache.
package modelspec

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"vbrsim/internal/acf"
	"vbrsim/internal/core"
	"vbrsim/internal/dist"
	"vbrsim/internal/farima"
	"vbrsim/internal/hosking"
	"vbrsim/internal/mpegtrace"
	"vbrsim/internal/tes"
	"vbrsim/internal/trace"
	"vbrsim/internal/transform"
)

// Spec is a serializable traffic-model specification.
type Spec struct {
	// Name labels the spec (becomes the default session name).
	Name string `json:"name,omitempty"`
	// Seed drives generation. 0 lets the server assign one (returned to the
	// client so the stream stays reproducible).
	Seed uint64 `json:"seed,omitempty"`
	// ACF is the background-process autocorrelation (the compensated model
	// when the spec comes from a fit).
	ACF ACFSpec `json:"acf"`
	// Marginal is the foreground marginal; nil means standard normal (the
	// stream is the background process itself).
	Marginal *MarginalSpec `json:"marginal,omitempty"`
	// Engine names the synthesis engine (the Engine constants; "" means
	// truncated). All are seed-deterministic and identical offline vs
	// served; their frame values differ between engines by construction.
	Engine string `json:"engine,omitempty"`
	// GOP configures the "gop" engine and must be set exactly for it.
	GOP *GOPSpec `json:"gop,omitempty"`
	// TES configures the "tes" engine and must be set exactly for it; the
	// engine maps the TES background through Marginal (required).
	TES *TESSpec `json:"tes,omitempty"`

	// Fit metadata, written by FromModel for the record; not used for
	// generation.
	H           float64  `json:"h,omitempty"`
	Attenuation float64  `json:"attenuation,omitempty"`
	Foreground  *ACFSpec `json:"foreground,omitempty"`
}

// ACF family names accepted by ACFSpec.Kind.
const (
	// ACFComposite is the paper's composite knee model (eqs. 10-12):
	// exponential mixture before the knee, power law after. The zero Kind
	// means composite, so every pre-Kind spec keeps its meaning.
	ACFComposite = "composite"
	// ACFFarima is the FARIMA(1,d,1) autocorrelation: pure fractional
	// differencing when Phi and Theta are zero, otherwise the full
	// short-memory×long-memory shape.
	ACFFarima = "farima"
	// ACFFGN is exact fractional Gaussian noise increments with Hurst H.
	ACFFGN = "fgn"
)

// ACFSpec serializes the background autocorrelation. Kind selects the
// family and which parameter fields apply; the zero Kind is the composite
// knee model, keeping the original wire format valid unchanged.
type ACFSpec struct {
	// Kind is one of "" / "composite" (Weights, Rates, L, Beta, Knee),
	// "farima" (D, optionally Phi and Theta), or "fgn" (H).
	Kind    string    `json:"kind,omitempty"`
	Weights []float64 `json:"weights,omitempty"`
	Rates   []float64 `json:"rates,omitempty"`
	L       float64   `json:"l,omitempty"`
	Beta    float64   `json:"beta,omitempty"`
	Knee    int       `json:"knee,omitempty"`

	// FARIMA(1,d,1) parameters (Kind "farima").
	D     float64 `json:"d,omitempty"`
	Phi   float64 `json:"phi,omitempty"`
	Theta float64 `json:"theta,omitempty"`
	// H is the fractional-Gaussian-noise Hurst parameter (Kind "fgn").
	H float64 `json:"hurst,omitempty"`
}

// compositeFieldsZero reports whether the composite-family parameters are
// all unset.
func (a ACFSpec) compositeFieldsZero() bool {
	return len(a.Weights) == 0 && len(a.Rates) == 0 && a.L == 0 && a.Beta == 0 && a.Knee == 0
}

// IsZero reports whether the spec is entirely unset (no family selected and
// no parameters) — the form engines without a Gaussian background require.
func (a ACFSpec) IsZero() bool {
	return a.Kind == "" && a.compositeFieldsZero() && a.D == 0 && a.Phi == 0 && a.Theta == 0 && a.H == 0
}

// Model materializes and validates the spec's autocorrelation family.
// Parameters belonging to a different family must be unset, so a typo'd
// spec fails loudly rather than silently ignoring half its numbers.
func (a ACFSpec) Model() (acf.Model, error) {
	switch a.Kind {
	case "", ACFComposite:
		if a.D != 0 || a.Phi != 0 || a.Theta != 0 || a.H != 0 {
			return nil, fmt.Errorf("modelspec: composite acf does not take d/phi/theta/hurst")
		}
		c := a.Composite()
		if err := c.Validate(); err != nil {
			return nil, err
		}
		return c, nil
	case ACFFarima:
		if !a.compositeFieldsZero() || a.H != 0 {
			return nil, fmt.Errorf("modelspec: farima acf takes only d, phi, theta")
		}
		if a.Phi == 0 && a.Theta == 0 {
			m := farima.ACF{D: a.D}
			if err := m.Validate(); err != nil {
				return nil, err
			}
			return m, nil
		}
		return farima.NewFull(a.Phi, a.D, a.Theta)
	case ACFFGN:
		if !a.compositeFieldsZero() || a.D != 0 || a.Phi != 0 || a.Theta != 0 {
			return nil, fmt.Errorf("modelspec: fgn acf takes only hurst")
		}
		if a.H <= 0 || a.H >= 1 {
			return nil, fmt.Errorf("modelspec: fgn hurst must lie in (0,1), got %v", a.H)
		}
		return acf.FGN{H: a.H}, nil
	}
	return nil, fmt.Errorf("modelspec: unknown acf kind %q (want %q, %q or %q)", a.Kind, ACFComposite, ACFFarima, ACFFGN)
}

// AsymptoticHurst returns the Hurst parameter the ACF family implies for
// large aggregation scales: H for fgn, 1 - beta/2 for the composite knee
// model (its power-law tail), d + 1/2 for farima. Returns 0 when the family
// has no LRD tail (e.g. composite with beta = 0) or the spec is unset —
// callers treat 0 as "unknown".
func (a ACFSpec) AsymptoticHurst() float64 {
	switch a.Kind {
	case "", ACFComposite:
		if a.Beta <= 0 || a.Beta >= 2 {
			return 0
		}
		return 1 - a.Beta/2
	case ACFFarima:
		if a.D <= 0 || a.D >= 0.5 {
			return 0
		}
		return a.D + 0.5
	case ACFFGN:
		return a.H
	}
	return 0
}

// Composite converts the spec to the acf model.
func (a ACFSpec) Composite() acf.Composite {
	return acf.Composite{
		Weights: append([]float64(nil), a.Weights...),
		Rates:   append([]float64(nil), a.Rates...),
		L:       a.L,
		Beta:    a.Beta,
		Knee:    a.Knee,
	}
}

func fromComposite(c acf.Composite) ACFSpec {
	return ACFSpec{
		Weights: append([]float64(nil), c.Weights...),
		Rates:   append([]float64(nil), c.Rates...),
		L:       c.L,
		Beta:    c.Beta,
		Knee:    c.Knee,
	}
}

// MarginalSpec serializes the foreground marginal. Kind selects the family
// and which parameter fields apply.
type MarginalSpec struct {
	// Kind is one of "normal" (Mu, Sigma), "lognormal" (Mu, Sigma of log),
	// "gamma" (Shape, Scale), or "empirical" (Sample).
	Kind   string    `json:"kind"`
	Mu     float64   `json:"mu,omitempty"`
	Sigma  float64   `json:"sigma,omitempty"`
	Shape  float64   `json:"shape,omitempty"`
	Scale  float64   `json:"scale,omitempty"`
	Sample []float64 `json:"sample,omitempty"`
}

// Distribution materializes the marginal.
func (m *MarginalSpec) Distribution() (dist.Distribution, error) {
	switch m.Kind {
	case "normal":
		sigma := m.Sigma
		if sigma == 0 {
			sigma = 1
		}
		return dist.Normal{Mu: m.Mu, Sigma: sigma}, nil
	case "lognormal":
		if m.Sigma <= 0 {
			return nil, errors.New("modelspec: lognormal marginal needs sigma > 0")
		}
		return dist.Lognormal{Mu: m.Mu, Sigma: m.Sigma}, nil
	case "gamma":
		if m.Shape <= 0 || m.Scale <= 0 {
			return nil, errors.New("modelspec: gamma marginal needs shape, scale > 0")
		}
		return dist.Gamma{Shape: m.Shape, Scale: m.Scale}, nil
	case "empirical":
		return dist.NewEmpirical(m.Sample)
	}
	return nil, fmt.Errorf("modelspec: unknown marginal kind %q", m.Kind)
}

// Validate checks the spec against its engine's registration without
// building plans.
func (s *Spec) Validate() error {
	_, _, err := s.validate()
	return err
}

// CostClass returns the admission cost class of the spec's engine in
// session units (0 for an unknown engine).
func (s *Spec) CostClass() float64 {
	if reg := s.reg(); reg != nil {
		return reg.cost
	}
	return 0
}

// Parse decodes and validates a JSON spec. Unknown fields are rejected so
// typos in hand-written specs fail loudly instead of silently streaming the
// wrong model.
func Parse(data []byte) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("modelspec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Source materializes the spec's background ACF and marginal transform.
// Engines without a Gaussian background ("gop", "tes") have no source
// decomposition and return an error; open them as a Stream instead.
func (s *Spec) Source() (acf.Model, transform.T, error) {
	reg, p, err := s.validate()
	if err != nil {
		return nil, transform.T{}, err
	}
	if !reg.gaussian() {
		return nil, transform.T{}, fmt.Errorf("modelspec: engine %q has no Gaussian background model", s.Engine)
	}
	return p.model, transform.New(p.target), nil
}

// SampleCap bounds the empirical-marginal sample FromModel embeds in a
// spec. Larger fitted samples are compacted onto a deterministic quantile
// grid: the rebuilt marginal is statistically indistinguishable but the
// spec stays a few hundred KB instead of tens of MB.
const SampleCap = 4096

// CompactSample returns the quantile-compacted wire form of an empirical
// marginal: the sample itself when it has at most SampleCap observations,
// otherwise the SampleCap-point grid of quantiles at (i+0.5)/SampleCap.
// The result is sorted and at most SampleCap long, so compacting is
// idempotent: rebuilding an Empirical from the result and compacting again
// reproduces the identical slice (the encode-decode-encode stability the
// fuzz tests lock in).
func CompactSample(e *dist.Empirical) []float64 {
	sample := e.Values()
	if len(sample) <= SampleCap {
		return sample
	}
	grid := make([]float64, SampleCap)
	for i := range grid {
		grid[i] = e.Quantile((float64(i) + 0.5) / SampleCap)
	}
	return grid
}

// FromModel exports a fitted unified model as a spec: the compensated
// background ACF, the empirical marginal (quantile-compacted above
// SampleCap observations), and the fit metadata.
func FromModel(m *core.Model, name string, seed uint64) Spec {
	sample := CompactSample(m.Marginal)
	fg := fromComposite(m.Foreground)
	return Spec{
		Name:        name,
		Seed:        seed,
		ACF:         fromComposite(m.Background),
		Marginal:    &MarginalSpec{Kind: "empirical", Sample: sample},
		H:           m.H,
		Attenuation: m.Attenuation,
		Foreground:  &fg,
	}
}

// Paper returns the ready-to-serve spec of the paper's reported model
// (eq. 13: H = 0.9, beta = 0.2, knee 60), continuity-adjusted so it is
// positive definite, with a long-tailed lognormal marginal standing in for
// the proprietary trace's empirical histogram.
func Paper() Spec {
	c := acf.PaperComposite().Continuous()
	if cc, err := c.EnsureConvex(); err == nil {
		c = cc
	}
	return Spec{
		Name:     "paper",
		ACF:      fromComposite(c),
		Marginal: &MarginalSpec{Kind: "lognormal", Mu: 9.6, Sigma: 0.4},
		H:        0.9,
	}
}

// TargetHurst returns the Hurst parameter the session promises to serve:
// the fit metadata H when present (the paper's reported value), otherwise
// whatever the generating ACF family implies asymptotically. 0 means the
// spec makes no self-similarity claim (e.g. gop/tes engines, which carry
// their own correlation structure).
func (s *Spec) TargetHurst() float64 {
	if s.H != 0 {
		return s.H
	}
	return s.ACF.AsymptoticHurst()
}

// GOPSpec serializes the "gop" engine's configuration — the parameters of
// mpegtrace.Config minus trace length and seed (streams are unbounded and
// the seed lives on the Spec). Zero fields take the mpegtrace defaults,
// matching that package's conventions; the zero GOPSpec is the paper-scale
// encoder (H = 0.9, IBBPBBPBBPBB).
type GOPSpec struct {
	// Pattern is the group-of-pictures frame-type pattern, e.g.
	// "IBBPBBPBBPBB" (the default).
	Pattern string `json:"pattern,omitempty"`
	// SceneAlpha is the Pareto tail index of scene durations in (1,2);
	// H = (3-alpha)/2.
	SceneAlpha float64 `json:"scene_alpha,omitempty"`
	// SceneMinFrames is the minimum scene length in frames.
	SceneMinFrames float64 `json:"scene_min_frames,omitempty"`
	// ActivityShape/ActivityScale parameterize the Gamma per-scene activity.
	ActivityShape float64 `json:"activity_shape,omitempty"`
	ActivityScale float64 `json:"activity_scale,omitempty"`
	// ModPhi/ModSigma parameterize the within-scene AR(1) log-modulation.
	ModPhi   float64 `json:"mod_phi,omitempty"`
	ModSigma float64 `json:"mod_sigma,omitempty"`
	// IScale, PScale, BScale are the frame-type size multipliers.
	IScale float64 `json:"i_scale,omitempty"`
	PScale float64 `json:"p_scale,omitempty"`
	BScale float64 `json:"b_scale,omitempty"`
	// FrameNoiseSigma is the per-frame lognormal noise sigma.
	FrameNoiseSigma float64 `json:"frame_noise_sigma,omitempty"`
}

// Config converts the spec to an mpegtrace configuration (Frames left zero:
// streams are unbounded).
func (g *GOPSpec) Config(seed uint64) (mpegtrace.Config, error) {
	cfg := mpegtrace.Config{
		SceneAlpha:      g.SceneAlpha,
		SceneMinFrames:  g.SceneMinFrames,
		ActivityShape:   g.ActivityShape,
		ActivityScale:   g.ActivityScale,
		ModPhi:          g.ModPhi,
		ModSigma:        g.ModSigma,
		IScale:          g.IScale,
		PScale:          g.PScale,
		BScale:          g.BScale,
		FrameNoiseSigma: g.FrameNoiseSigma,
		Seed:            seed,
	}
	if g.Pattern != "" {
		gop := make([]trace.FrameType, len(g.Pattern))
		for i, c := range g.Pattern {
			ft, err := trace.ParseFrameType(string(c))
			if err != nil {
				return cfg, fmt.Errorf("modelspec: gop pattern: %w", err)
			}
			gop[i] = ft
		}
		cfg.GOP = gop
	}
	return cfg, nil
}

// TESSpec serializes the "tes" engine's configuration. The foreground
// marginal comes from the enclosing Spec.Marginal.
type TESSpec struct {
	// Alpha is the innovation width in (0,1]: small alpha means strong
	// positive background correlation.
	Alpha float64 `json:"alpha"`
	// Zeta is the stitching parameter in (0,1]; 0 means 0.5 (symmetric).
	Zeta float64 `json:"zeta,omitempty"`
	// Minus selects the TES- variant (alternating reflection).
	Minus bool `json:"minus,omitempty"`
}

// config assembles the tes.Config for the given foreground marginal.
func (t *TESSpec) config(target dist.Distribution) tes.Config {
	zeta := t.Zeta
	if zeta == 0 {
		zeta = 0.5
	}
	return tes.Config{Alpha: t.Alpha, Zeta: zeta, Marginal: target, Minus: t.Minus}
}

// Stream is the deterministic generation loop for a spec: the engine named
// by Spec.Engine — for the Gaussian engines an unbounded background
// generator behind the process-wide plan cache, mapped through the marginal
// transform. It is bound to a single goroutine; trafficd serializes access
// per session.
type Stream struct {
	eng   engine
	seed  uint64
	trunc *hosking.Truncated // nil for engines without a Gaussian plan
	mean  float64            // stationary foreground mean (bytes per frame)
	marg  dist.Distribution  // foreground marginal (nil for gop)
}

// OpenCtx validates the spec once and opens it through its engine's
// registration (for the Gaussian engines: cached, cancellable plan
// acquisition). tol is the partial-correlation cutoff (0 = default). The
// stream starts at frame 0.
func (s *Spec) OpenCtx(ctx context.Context, tol float64) (*Stream, error) {
	reg, p, err := s.validate()
	if err != nil {
		return nil, err
	}
	return reg.open(ctx, s.Seed, p, tol)
}

// Close releases engine-side accounting (the block engine's arena gauge).
// A closed stream must not be used again.
func (st *Stream) Close() { st.eng.Close() }

// Pos returns the index of the next frame the stream will produce.
func (st *Stream) Pos() int { return st.eng.Pos() }

// Seed returns the seed driving the stream.
func (st *Stream) Seed() uint64 { return st.seed }

// Reseed rewinds the stream to frame 0 of the trace keyed by seed, keeping
// plans, LUTs and arenas, so the trunk engine re-keys pooled component
// streams without allocating. Reseed(Seed()) replays bit-identically.
func (st *Stream) Reseed(seed uint64) {
	st.seed = seed
	st.eng.Reseed(seed)
}

// Order returns the AR truncation order of the underlying fast plan (for
// the block engine: the stitch overlap length). The gop and tes engines
// have no Gaussian plan and report 0.
func (st *Stream) Order() int {
	if st.trunc == nil {
		return 0
	}
	return st.trunc.Order()
}

// MaxACFError returns the measured ACF error of the truncation (0 for the
// plan-free gop and tes engines).
func (st *Stream) MaxACFError() float64 {
	if st.trunc == nil {
		return 0
	}
	return st.trunc.MaxACFError()
}

// MeanRate returns the stationary mean frame size in bytes — the quantity
// service-rate provisioning scales against: the marginal mean for the
// transform engines and tes, the analytic encoder mean for gop.
func (st *Stream) MeanRate() float64 { return st.mean }

// Marginal returns the foreground marginal distribution the stream maps
// frames through, or nil for the gop engine (whose marginal is emergent, not
// analytic). Live monitors compare observed quantiles against it.
func (st *Stream) Marginal() dist.Distribution { return st.marg }

// ImpliedACF returns the model-implied autocorrelation of served frames at
// lags 0..lags-1: the truncated plan's background ACF (the AR(p) extension
// that is bit-true to what the generator actually produces, including the
// truncation error) attenuated through the marginal transform by the paper's
// factor a = Attenuation() — eq. 9's ρ_Y(k) ≈ a·ρ_X(k), with ρ_Y(0) = 1.
// Engines without a Gaussian background (gop, tes) return nil: their serve-
// path correlation has no cheap analytic form, so live monitors skip the
// ACF and Hurst checks for them.
func (st *Stream) ImpliedACF(lags int) []float64 {
	if st.trunc == nil || lags <= 0 {
		return nil
	}
	rho := st.trunc.ImpliedACF(lags)
	a := transform.New(st.marg).Attenuation()
	for k := 1; k < len(rho); k++ {
		rho[k] *= a
	}
	return rho
}

// Fill produces len(out) consecutive frames.
func (st *Stream) Fill(out []float64) { st.eng.Fill(out) }

// Seek positions the stream so the next frame is frame pos. The truncated,
// gop and tes engines replay deterministically from the seed (a backward
// seek rewinds first); the block engine seeks in O(1) either way.
func (st *Stream) Seek(pos int) { st.SeekCtx(context.Background(), pos) }

// SeekCtx is Seek with cancellation (pos is client-controlled in trafficd).
// A canceled replay leaves the stream wherever it got to, a valid state a
// later seek continues or rewinds from.
func (st *Stream) SeekCtx(ctx context.Context, pos int) error {
	if pos < 0 {
		pos = 0
	}
	return st.eng.SeekCtx(ctx, pos)
}

// Frames generates frames [from, from+n) offline, exactly as a trafficd
// session streams them for the same spec and seed — the reference
// implementation for resume semantics and for end-to-end verification.
func (s *Spec) Frames(ctx context.Context, from, n int, tol float64) ([]float64, error) {
	st, err := s.OpenCtx(ctx, tol)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	if err := st.SeekCtx(ctx, from); err != nil {
		return nil, err
	}
	out := make([]float64, n)
	st.Fill(out)
	return out, nil
}
