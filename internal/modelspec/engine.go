package modelspec

import (
	"cmp"
	"context"
	"fmt"
	"sort"
	"strings"

	"vbrsim/internal/acf"
	"vbrsim/internal/dist"
	"vbrsim/internal/hosking"
	"vbrsim/internal/mpegtrace"
	"vbrsim/internal/rng"
	"vbrsim/internal/streamblock"
	"vbrsim/internal/tes"
	"vbrsim/internal/transform"
)

// Engine names accepted by Spec.Engine.
const (
	EngineTruncated = "truncated" // AR(p) fast recursion, exact transform; the default
	EngineBlock     = "block"     // overlapped-block Davies-Harte, LUT transform, O(1) seek
	EngineGOP       = "gop"       // §3.3 scene/GOP simulator with its own ACF and marginal
	EngineTES       = "tes"       // TES modulo-1 process mapped through the spec marginal
)

// engine is one open synthesis engine behind a Stream. Stream calls it once
// per Fill chunk, never per frame, so the dispatch stays off the per-frame
// path.
type engine interface {
	Fill(out []float64)
	SeekCtx(ctx context.Context, pos int) error // pos >= 0
	Reseed(seed uint64)
	Pos() int
	Close()
}

// fields is a set of the engine-selectable Spec fields.
type fields uint8

const (
	fieldACF fields = 1 << iota
	fieldMarginal
	fieldGOP
	fieldTES
)

// registration is everything the package knows about one engine. Adding
// an engine is one registry entry, plus its golden and contract specs in
// the tests, which fail for a registered engine without them.
type registration struct {
	// needs are the fields a spec must set; it must leave the others unset,
	// except a marginal, which is optional unless needed.
	needs fields
	// ownMarginal marks an engine that generates its own marginal: a spec
	// must not set one, and a trunk never hands it the shared one.
	ownMarginal bool
	// cost is the admission cost class in session units: the relative
	// steady-state expense of one open stream — O(p) AR work and history
	// per frame for truncated (p≈361 for the paper model), FFT blocks
	// amortized over an arena for block, O(1) per frame for gop and tes.
	cost float64
	open func(ctx context.Context, s *Spec, p *parts, tol float64) (*Stream, error)
}

// gaussian reports whether the engine maps a Gaussian background through
// the marginal transform (the paper's eq. 7).
func (r *registration) gaussian() bool { return r.needs&fieldACF != 0 }

// registry holds one registration per engine name; "" means truncated.
var registry = map[string]*registration{
	EngineTruncated: {needs: fieldACF, cost: 8, open: openTruncated},
	EngineBlock:     {needs: fieldACF, cost: 4, open: openBlock},
	EngineGOP:       {needs: fieldGOP, ownMarginal: true, cost: 2, open: openGOP},
	EngineTES:       {needs: fieldTES | fieldMarginal, cost: 1, open: openTES},
}

// Engines returns the registered engine names in sorted order.
func Engines() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func (s *Spec) engineName() string { return cmp.Or(s.Engine, EngineTruncated) }

// reg returns the registration of the spec's engine, nil if unknown.
func (s *Spec) reg() *registration { return registry[s.engineName()] }

// parts is what validation materializes from a spec; engines open from it
// without parsing the spec again.
type parts struct {
	model  acf.Model         // Gaussian background
	target dist.Distribution // foreground marginal (N(0,1) when unset)
	gop    mpegtrace.Config  // keyed by the spec seed
	tes    tes.Config
}

// validate checks the spec against its engine's field rules and
// materializes the parts the engine opens from.
func (s *Spec) validate() (*registration, *parts, error) {
	reg := s.reg()
	if reg == nil {
		return nil, nil, fmt.Errorf("modelspec: unknown engine %q (want one of %s)", s.Engine, strings.Join(Engines(), ", "))
	}
	for i, f := range [...]struct {
		name string
		set  bool
	}{
		{"an acf", !s.ACF.IsZero()},
		{"a marginal", s.Marginal != nil},
		{"a gop config", s.GOP != nil},
		{"a tes config", s.TES != nil},
	} {
		bit := fields(1) << i
		switch {
		case reg.needs&bit != 0 && !f.set:
			return nil, nil, fmt.Errorf("modelspec: engine %q needs %s", s.engineName(), f.name)
		case bit == fieldMarginal && reg.ownMarginal && f.set:
			return nil, nil, fmt.Errorf("modelspec: engine %q generates its own marginal; drop the marginal", s.engineName())
		case bit != fieldMarginal && reg.needs&bit == 0 && f.set:
			return nil, nil, fmt.Errorf("modelspec: engine %q does not take %s", s.engineName(), f.name)
		}
	}
	p := &parts{target: dist.StdNormal}
	var err error
	if reg.gaussian() {
		if p.model, err = s.ACF.Model(); err != nil {
			return nil, nil, err
		}
	}
	if s.Marginal != nil {
		if p.target, err = s.Marginal.Distribution(); err != nil {
			return nil, nil, err
		}
	}
	if s.GOP != nil {
		if p.gop, err = s.GOP.Config(s.Seed); err != nil {
			return nil, nil, err
		}
		vc := p.gop
		vc.Frames = 1 // streams are unbounded; satisfy the finite-trace check
		if err := vc.Validate(); err != nil {
			return nil, nil, fmt.Errorf("modelspec: %w", err)
		}
	}
	if s.TES != nil {
		p.tes = s.TES.config(p.target)
		if err := p.tes.Validate(); err != nil {
			return nil, nil, err
		}
	}
	return reg, p, nil
}

// openGaussian acquires the compiled entry both Gaussian engines share
// (cached, cancellable; build adds the engine's own state on a miss) and
// fills the plan-backed Stream accessors.
func openGaussian(ctx context.Context, s *Spec, p *parts, tol float64, build func(*compiled) error) (*Stream, error) {
	c, err := compile(ctx, s, p, tol, build)
	if err != nil {
		return nil, err
	}
	return &Stream{seed: s.Seed, comp: c, mean: p.target.Mean(), marg: p.target}, nil
}

func openTruncated(ctx context.Context, s *Spec, p *parts, tol float64) (*Stream, error) {
	st, err := openGaussian(ctx, s, p, tol, nil)
	if err != nil {
		return nil, err
	}
	gen, tr := hosking.NewTruncatedGenerator(st.comp.trunc, rng.New(s.Seed)), transform.New(p.target)
	fill := func(out []float64) {
		for i := range out {
			out[i] = tr.Apply(gen.Next())
		}
	}
	// Replay skips the exact transform: it is stateless.
	st.eng = &replayEngine{gen, s.Seed, fill, func() { gen.Next() }}
	return st, nil
}

func openBlock(ctx context.Context, s *Spec, p *parts, tol float64) (*Stream, error) {
	st, err := openGaussian(ctx, s, p, tol, func(c *compiled) (err error) {
		if c.eng, err = streamblock.EngineFor(p.model, c.trunc, streamblock.Config{}); err != nil {
			return err
		}
		c.lut, err = transform.New(p.target).NewDefaultLUT()
		return err
	})
	if err != nil {
		return nil, err
	}
	st.eng = blockEngine{st.comp.eng.NewStream(s.Seed), st.comp.lut}
	return st, nil
}

func openGOP(_ context.Context, s *Spec, p *parts, _ float64) (*Stream, error) {
	seed := s.Seed
	gen, err := mpegtrace.NewGenerator(p.gop)
	if err != nil {
		return nil, err
	}
	fill := func(out []float64) {
		for i := range out {
			out[i], _ = gen.Next()
		}
	}
	eng := &replayEngine{gen, seed, fill, func() { gen.Next() }}
	return &Stream{eng: eng, seed: seed, mean: p.gop.MeanBytesPerFrame()}, nil
}

func openTES(_ context.Context, s *Spec, p *parts, _ float64) (*Stream, error) {
	seed := s.Seed
	gen, err := tes.New(p.tes, rng.New(seed))
	if err != nil {
		return nil, err
	}
	fill := func(out []float64) {
		for i := range out {
			out[i] = gen.Next()
		}
	}
	// Replay skips the quantile lookup: the background step draws
	// everything Next draws.
	eng := &replayEngine{gen, seed, fill, func() { gen.NextBackground() }}
	return &Stream{eng: eng, seed: seed, mean: p.target.Mean(), marg: p.target}, nil
}

// blockEngine is the overlapped-block Davies-Harte stream plus its LUT
// transform, applied in place after each fill; it seeks in O(1) and never
// reports cancellation.
type blockEngine struct {
	*streamblock.Stream
	lut *transform.LUT
}

func (e blockEngine) Fill(out []float64) {
	e.Stream.Fill(out)
	e.lut.ApplyTo(out, out)
}

func (e blockEngine) SeekCtx(_ context.Context, pos int) error {
	e.Seek(pos)
	return nil
}

// replayEngine is an engine without random access: it seeks by replaying
// from its seed, rewinding first when the target lies behind it.
type replayEngine struct {
	gen interface {
		Pos() int
		Reseed(seed uint64)
	}
	seed uint64
	fill func(out []float64)
	skip func() // advance one frame, discarding the foreground value
}

func (e *replayEngine) Fill(out []float64) { e.fill(out) }
func (e *replayEngine) Pos() int           { return e.gen.Pos() }
func (e *replayEngine) Close()             {}

func (e *replayEngine) Reseed(seed uint64) {
	e.seed = seed
	e.gen.Reseed(seed)
}

// seekCheckEvery is how many skipped frames a replay generates between
// context polls: often enough to abort a long replay within milliseconds,
// rarely enough to stay invisible in the per-frame cost.
const seekCheckEvery = 1 << 13

// SeekCtx polls ctx every seekCheckEvery replayed frames.
func (e *replayEngine) SeekCtx(ctx context.Context, pos int) error {
	if pos < e.gen.Pos() {
		e.gen.Reseed(e.seed)
	}
	for n := 0; e.gen.Pos() < pos; n++ {
		if n%seekCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		e.skip()
	}
	return nil
}
