// Package trunk implements the superposition engine: N independently-seeded
// component streams — any mix of modelspec engines (truncated AR, block
// Davies-Harte, the §3.3 GOP simulator, TES) and ACF families (composite,
// FARIMA, FGN) — summed into one aggregate arrival process, the ATM/ISP
// trunk of the paper's introduction.
//
// Determinism contract: every flattened source s draws its seed as
// SourceSeed(trunkSeed, s), so the whole aggregate is reproducible from the
// trunk spec alone. Fill fans the component streams out on the par pool and
// sums their chunks in ascending source order per frame, which makes the
// output invariant to the worker count; Seek forwards to the components
// (O(1) on the block engine, seed replay elsewhere), so seek-&-resume is
// bit-identical to sequential playback. After Open, steady-state Fill
// performs no allocations: component rows live in one slab arena sized at
// open time.
package trunk

import (
	"context"
	"fmt"
	"time"

	"vbrsim/internal/modelspec"
	"vbrsim/internal/par"
	"vbrsim/internal/rng"
)

// SourceSeed derives the seed of flattened source ordinal s of a trunk
// keyed by trunkSeed (rng.Derive, the same derivation trafficd uses to
// assign session seeds). Distinct ordinals decorrelate completely even for
// adjacent trunk seeds.
func SourceSeed(trunkSeed uint64, ordinal int) uint64 {
	return rng.Derive(trunkSeed, uint64(ordinal))
}

// trunkChunk is the fan-out granularity of Fill: component streams fill
// slab rows of at most this many frames per round. It bounds the slab to
// sources×8 KiB while keeping the per-round par dispatch cost amortized
// over enough frames to vanish.
const trunkChunk = 1024

// Options tunes trunk construction.
type Options struct {
	// Tol is the partial-correlation truncation cutoff passed to component
	// plan builds (0 = default).
	Tol float64
	// Workers bounds the fan-out parallelism (0 = GOMAXPROCS). Any value
	// produces bit-identical frames.
	Workers int
}

// Trunk is an open superposition: the flattened, independently seeded
// component streams plus the slab arena their chunks land in. Like
// modelspec.Stream it is bound to a single goroutine; trafficd serializes
// access per session.
type Trunk struct {
	seed    uint64
	pos     int
	workers int
	mean    float64

	comps   []*modelspec.Stream
	weights []float64 // per flattened source, component order
	slab    []float64 // len(comps) rows × trunkChunk frames

	// Persistent fan-out closures: allocated once at Open so steady-state
	// fillChunk passes preexisting func values to par.For instead of
	// allocating fresh closures per chunk. The fields below are their
	// per-round parameters.
	fillCompFn func(worker, c int)
	reduceFn   func(worker, b int)
	fillOut    []float64
	fillN      int
	blockSize  int
}

// Open materializes the trunk: validates the spec, opens every flattened
// source with its derived seed (plan builds are cached and cancellable),
// and sizes the slab arena. The trunk starts at frame 0.
func Open(ctx context.Context, spec *modelspec.TrunkSpec, opt Options) (*Trunk, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	n := spec.NumSources()
	t := &Trunk{
		seed:    spec.Seed,
		workers: opt.Workers,
		comps:   make([]*modelspec.Stream, 0, n),
		weights: make([]float64, 0, n),
	}
	for ci, c := range spec.Resolved() {
		for rep := 0; rep < c.Count; rep++ {
			s := c.Spec
			s.Seed = SourceSeed(spec.Seed, len(t.comps))
			st, err := s.OpenCtx(ctx, opt.Tol)
			if err != nil {
				t.Close()
				return nil, fmt.Errorf("trunk: component %d replica %d: %w", ci, rep, err)
			}
			t.comps = append(t.comps, st)
			t.weights = append(t.weights, c.Weight)
			t.mean += c.Weight * st.MeanRate()
		}
	}
	t.slab = make([]float64, len(t.comps)*trunkChunk)
	t.fillCompFn = func(_, c int) {
		t.comps[c].Fill(t.slab[c*trunkChunk : c*trunkChunk+t.fillN])
	}
	t.reduceFn = func(_, b int) {
		lo := b * t.blockSize
		hi := lo + t.blockSize
		if hi > t.fillN {
			hi = t.fillN
		}
		seg := t.fillOut[lo:hi]
		for i := range seg {
			seg[i] = 0
		}
		for c := range t.comps {
			w := t.weights[c]
			row := t.slab[c*trunkChunk+lo : c*trunkChunk+hi]
			for i, v := range row {
				seg[i] += w * v
			}
		}
	}
	observeSources(len(t.comps))
	return t, nil
}

// Close releases every component stream (block-engine arena accounting). A
// closed trunk must not be used again.
func (t *Trunk) Close() {
	for _, st := range t.comps {
		st.Close()
	}
	observeSources(-len(t.comps))
	t.comps = nil
}

// Seed returns the trunk seed all source seeds derive from.
func (t *Trunk) Seed() uint64 { return t.seed }

// Pos returns the index of the next aggregate frame Fill will produce.
func (t *Trunk) Pos() int { return t.pos }

// NumSources returns the flattened source count.
func (t *Trunk) NumSources() int { return len(t.comps) }

// MeanRate returns the stationary mean of the aggregate in bytes per frame:
// the weighted sum of the component means — the quantity trunk service
// rates are provisioned against.
func (t *Trunk) MeanRate() float64 { return t.mean }

// Order returns the largest component plan order (0 when every component is
// plan-free).
func (t *Trunk) Order() int {
	max := 0
	for _, st := range t.comps {
		if o := st.Order(); o > max {
			max = o
		}
	}
	return max
}

// MaxACFError returns the largest measured truncation ACF error across
// components.
func (t *Trunk) MaxACFError() float64 {
	max := 0.0
	for _, st := range t.comps {
		if e := st.MaxACFError(); e > max {
			max = e
		}
	}
	return max
}

// Reseed re-keys the whole trunk under a new base seed and rewinds it to
// frame 0: every component is reseeded with its derived SourceSeed. Plans,
// LUTs, arenas and the slab are kept, so reseeding allocates nothing — the
// queue adapter re-keys one pooled trunk per replication this way.
func (t *Trunk) Reseed(base uint64) {
	t.seed = base
	t.pos = 0
	for i, st := range t.comps {
		st.Reseed(SourceSeed(base, i))
	}
}

// Fill produces len(out) consecutive aggregate frames, fanning the
// component streams out across the par pool in trunkChunk rounds. Zero
// allocations in steady state.
func (t *Trunk) Fill(out []float64) {
	for len(out) > 0 {
		n := len(out)
		if n > trunkChunk {
			n = trunkChunk
		}
		t.fillChunk(out[:n])
		out = out[n:]
	}
}

// fillChunk advances every component by n <= trunkChunk frames into its
// slab row, then reduces the rows into out. The reduction splits the frame
// range across workers; each frame is summed over components in ascending
// source order by exactly one worker, so the result does not depend on the
// worker count.
func (t *Trunk) fillChunk(out []float64) {
	n := len(out)
	nc := len(t.comps)
	start := time.Now()
	t.fillN = n
	par.For(par.Workers(t.workers, nc), nc, t.fillCompFn)
	workers := par.Workers(t.workers, n)
	t.fillOut = out
	t.blockSize = (n + workers - 1) / workers
	blocks := (n + t.blockSize - 1) / t.blockSize
	par.For(workers, blocks, t.reduceFn)
	t.fillOut = nil
	t.pos += n
	observeFanout(time.Since(start).Nanoseconds())
}

// Seek positions the trunk so the next frame is frame pos.
func (t *Trunk) Seek(pos int) { t.SeekCtx(context.Background(), pos) }

// SeekCtx is Seek with cancellation: the component seeks fan out on the par
// pool (block components seek in O(1); replay components poll ctx). On
// error the components may sit at mixed positions, but every component
// seeks absolutely, so a later SeekCtx fully realigns the trunk.
func (t *Trunk) SeekCtx(ctx context.Context, pos int) error {
	if pos < 0 {
		pos = 0
	}
	nc := len(t.comps)
	err := par.ForCtx(ctx, par.Workers(t.workers, nc), nc, func(_, c int) error {
		return t.comps[c].SeekCtx(ctx, pos)
	})
	if err != nil {
		return err
	}
	t.pos = pos
	return nil
}
