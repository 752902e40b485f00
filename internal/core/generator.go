package core

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"vbrsim/internal/acf"
	"vbrsim/internal/daviesharte"
	"vbrsim/internal/hosking"
	"vbrsim/internal/rng"
	"vbrsim/internal/streamblock"
)

// Backend selects the Gaussian-process generator: BackendAuto, or one entry
// of the generator table.
type Backend int

// Generation backends.
const (
	// BackendAuto uses Hosking up to moderate lengths and Davies-Harte
	// beyond, trading exactness guarantees for O(n log n) cost.
	BackendAuto Backend = iota
	// BackendHosking forces the exact O(n^2) Durbin-Levinson sampler.
	BackendHosking
	// BackendDaviesHarte forces the circulant-embedding sampler.
	BackendDaviesHarte
	// BackendHoskingFast uses the truncated-AR(p) Hosking fast path: exact
	// conditional sampling up to the truncation order, frozen O(p) AR steps
	// beyond it, any length. Falls back to the exact plan when the partial
	// correlations have not decayed at the plan length.
	BackendHoskingFast
	// BackendStreamBlock draws through the overlapped-block stream engine:
	// fixed-size Davies-Harte blocks stitched by the truncated AR view.
	BackendStreamBlock
)

// StreamBlockTotal sizes the block engine behind BackendStreamBlock. It is
// deliberately small (block length 2048 - order, far below the serving
// streamblock.DefaultTotal) so paths of a few thousand frames cross several
// block boundaries and the stitch correction — the engine's only
// approximation — is what the conformance gates actually measure.
const StreamBlockTotal = 2048

// Fill writes the background path for one seed into dst, taking scratch
// from the caller-owned arena. A Fill is safe for concurrent calls with
// distinct arenas, and allocates nothing once an arena is warm.
type Fill func(dst []float64, a *Arena, seed uint64)

// Arena is the per-goroutine scratch of a Fill: a reseedable source, the
// Davies-Harte path scratch, and one block stream reseeded between fills so
// its block buffers are reused.
type Arena struct {
	src rng.Source
	dh  daviesharte.Scratch
	blk *streamblock.Stream
}

// Close releases the arena's block stream from the arena-bytes gauge.
func (a *Arena) Close() {
	if a.blk != nil {
		a.blk.Close()
		a.blk = nil
	}
}

// Generator is one background generator: zero-mean, unit-variance Gaussian
// paths targeting a given ACF.
type Generator struct {
	// Name is the canonical spelling ParseBackend and String use; Aliases
	// are accepted too.
	Name    string
	Aliases []string
	// Prepare builds the plan for paths of length n once and returns the
	// fill that draws one path per seed from it.
	Prepare func(ctx context.Context, model acf.Model, n int) (Fill, error)

	backend Backend
	// path, when set, is the one-shot kernel Path uses instead of Prepare
	// plus one fill.
	path func(model acf.Model, n int, seed uint64) ([]float64, error)
}

// generators is the one table of background generators. Its order is the
// order every caller iterates it in, the conformance report's included.
// Adding a generator is one entry here plus its golden trace.
var generators = []Generator{
	{
		Name: "hosking", backend: BackendHosking,
		Prepare: prepareHosking,
	},
	{
		Name: "hosking-fast", Aliases: []string{"fast"}, backend: BackendHoskingFast,
		Prepare: func(ctx context.Context, model acf.Model, n int) (Fill, error) {
			trunc, err := TruncatedPlanForCtx(ctx, model, n, 0)
			if err != nil {
				// Tail not decayed within the plan: fall back to exact
				// generation, which requires the plan to cover the path.
				return prepareHosking(ctx, model, max(n, truncPlanLen(n)))
			}
			return func(dst []float64, a *Arena, seed uint64) {
				a.src.Reseed(seed)
				trunc.Generate(&a.src, dst)
			}, nil
		},
	},
	{
		Name: "daviesharte", Aliases: []string{"davies-harte"}, backend: BackendDaviesHarte,
		Prepare: func(_ context.Context, model acf.Model, n int) (Fill, error) {
			plan, err := daviesharte.NewPlan(model, n, daviesharte.Options{AllowApprox: true})
			if err != nil {
				return nil, err
			}
			return func(dst []float64, a *Arena, seed uint64) {
				a.src.Reseed(seed)
				plan.PathRealInto(dst, &a.dh, &a.src)
			}, nil
		},
		// The fill's packed real FFT and the one-shot full complex FFT
		// agree only to rounding: the golden trace and offline Generate
		// pin the complex kernel, the conformance report the real one, so
		// this entry alone keeps a separate one-shot path.
		path: func(model acf.Model, n int, seed uint64) ([]float64, error) {
			plan, err := daviesharte.NewPlan(model, n, daviesharte.Options{AllowApprox: true})
			if err != nil {
				return nil, err
			}
			return plan.Path(rng.New(seed)), nil
		},
	},
	{
		Name: "streamblock", backend: BackendStreamBlock,
		Prepare: func(ctx context.Context, model acf.Model, _ int) (Fill, error) {
			trunc, err := TruncatedPlanForCtx(ctx, model, 0, 0)
			if err != nil {
				return nil, err
			}
			eng, err := streamblock.EngineFor(model, trunc, streamblock.Config{Total: StreamBlockTotal})
			if err != nil {
				return nil, err
			}
			return func(dst []float64, a *Arena, seed uint64) {
				if a.blk == nil || a.blk.Engine() != eng {
					a.Close()
					a.blk = eng.NewStream(seed)
				} else {
					a.blk.Reseed(seed)
				}
				a.blk.Fill(dst)
			}, nil
		},
	},
}

// prepareHosking is the exact Durbin-Levinson sampler over a cached plan.
func prepareHosking(ctx context.Context, model acf.Model, n int) (Fill, error) {
	plan, err := hosking.CachedPlanCtx(ctx, model, n)
	if err != nil {
		return nil, err
	}
	return func(dst []float64, a *Arena, seed uint64) {
		a.src.Reseed(seed)
		plan.Generate(&a.src, dst)
	}, nil
}

// Generators returns the generator table in its canonical order.
func Generators() []Generator { return append([]Generator(nil), generators...) }

// Path draws one background path of length n for seed.
func (g Generator) Path(ctx context.Context, model acf.Model, n int, seed uint64) ([]float64, error) {
	if g.path != nil {
		return g.path(model, n, seed)
	}
	fill, err := g.Prepare(ctx, model, n)
	if err != nil {
		return nil, err
	}
	var a Arena
	defer a.Close()
	x := make([]float64, n)
	fill(x, &a, seed)
	return x, nil
}

// Generator returns the table entry that generates paths of length n for
// b: BackendAuto is Hosking up to autoHoskingLimit frames and Davies-Harte
// beyond.
func (b Backend) Generator(n int) (Generator, error) {
	if b == BackendAuto {
		b = BackendDaviesHarte
		if n <= autoHoskingLimit {
			b = BackendHosking
		}
	}
	for _, g := range generators {
		if g.backend == b {
			return g, nil
		}
	}
	return Generator{}, fmt.Errorf("core: unknown backend %v", b)
}

// BackendNames lists every canonical backend spelling: auto, then the
// generator table's names.
func BackendNames() []string {
	names := []string{"auto"}
	for _, g := range generators {
		names = append(names, g.Name)
	}
	return names
}

// ParseBackend reads a backend name or alias, case-insensitively; the empty
// string is BackendAuto.
func ParseBackend(name string) (Backend, error) {
	name = strings.ToLower(name)
	if name == "" || name == "auto" {
		return BackendAuto, nil
	}
	for _, g := range generators {
		if name == g.Name || slices.Contains(g.Aliases, name) {
			return g.backend, nil
		}
	}
	return 0, fmt.Errorf("unknown backend %q (want %s)", name, strings.Join(BackendNames(), ", "))
}

// String returns the backend's canonical name.
func (b Backend) String() string {
	if b == BackendAuto {
		return "auto"
	}
	for _, g := range generators {
		if g.backend == b {
			return g.Name
		}
	}
	return fmt.Sprintf("Backend(%d)", int(b))
}
