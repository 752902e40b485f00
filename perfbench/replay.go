package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"vbrsim/internal/acf"
	"vbrsim/internal/core"
	"vbrsim/internal/daviesharte"
	"vbrsim/internal/fft"
	"vbrsim/internal/hosking"
	"vbrsim/internal/modelspec"
	"vbrsim/internal/rng"
	"vbrsim/internal/server"
	"vbrsim/internal/statmon"
	"vbrsim/internal/streamblock"
	"vbrsim/internal/transform"
	"vbrsim/internal/trunk"
)

// serveChunk is the server's frame chunk: it fills, taps and encodes
// frames this many at a time, and the replay does the same.
const serveChunk = 1024

// statmonEvery is the production statmon sampling rate (1 in 32 chunks).
const statmonEvery = 32

// replayStream reproduces one session offline from its spec: the block
// engine's background stream and transform LUT as separate calls, the TES
// stream, or the trunk, plus a statistical monitor configured as the
// server's.
type replayStream struct {
	blk *streamblock.Stream
	lut *transform.LUT
	ms  *modelspec.Stream
	trk *trunk.Trunk
	mon *statmon.Monitor
}

func monitorConfig() statmon.Config {
	return statmon.Config{SampleEvery: statmonEvery, MaxScale: serveChunk}
}

// openReplay opens the replay of a stream session. For the block engine
// it calls the same public steps Spec.OpenCtx takes, so the background
// fill and the LUT can be timed apart.
func openReplay(ctx context.Context, spec *modelspec.Spec) (*replayStream, error) {
	ms, err := spec.OpenCtx(ctx, 0)
	if err != nil {
		return nil, err
	}
	ref := statmon.Ref{
		H:          spec.TargetHurst(),
		AsymH:      spec.ACF.AsymptoticHurst(),
		ImpliedACF: ms.ImpliedACF(serveChunk + 1),
		Mean:       ms.MeanRate(),
	}
	if marg := ms.Marginal(); marg != nil {
		ref.Quantile = marg.Quantile
	}
	rs := &replayStream{mon: statmon.New(monitorConfig(), ref)}
	if spec.Engine != modelspec.EngineBlock {
		rs.ms = ms
		return rs, nil
	}
	ms.Close()
	model, tr, err := spec.Source()
	if err != nil {
		return nil, err
	}
	trunc, err := core.TruncatedPlanForCtx(ctx, model, 0, 0)
	if err != nil {
		return nil, err
	}
	eng, err := streamblock.EngineFor(model, trunc, streamblock.Config{})
	if err != nil {
		return nil, err
	}
	if rs.lut, err = tr.NewDefaultLUT(); err != nil {
		return nil, err
	}
	rs.blk = eng.NewStream(spec.Seed)
	return rs, nil
}

// openTrunkReplay opens a trunk serially (any worker count gives the same
// frames) with the server's trunk monitor.
func openTrunkReplay(ctx context.Context, spec *modelspec.TrunkSpec) (*replayStream, error) {
	t, err := trunk.Open(ctx, spec, trunk.Options{Workers: 1})
	if err != nil {
		return nil, err
	}
	return &replayStream{trk: t, mon: statmon.New(monitorConfig(), statmon.Ref{})}, nil
}

func (rs *replayStream) pos() int {
	switch {
	case rs.blk != nil:
		return rs.blk.Pos()
	case rs.trk != nil:
		return rs.trk.Pos()
	}
	return rs.ms.Pos()
}

func (rs *replayStream) seek(pos int) {
	switch {
	case rs.blk != nil:
		rs.blk.Seek(pos)
	case rs.trk != nil:
		rs.trk.Seek(pos)
	default:
		rs.ms.Seek(pos)
	}
}

func (rs *replayStream) close() {
	switch {
	case rs.blk != nil:
		rs.blk.Close()
	case rs.trk != nil:
		rs.trk.Close()
	default:
		rs.ms.Close()
	}
}

// replayer replays served requests chunk by chunk, timing each layer call
// as a replayed span under the request's handler span.
type replayer struct {
	tr  *tracer
	buf []float64
	out []byte

	// Frames passed through each layer.
	blockFrames, tesFrames, trunkFrames, monFrames, encFrames int
}

func newReplayer(tr *tracer) *replayer {
	return &replayer{tr: tr, buf: make([]float64, serveChunk)}
}

// timed runs fn as a replayed span.
func (rp *replayer) timed(parent, op uint64, name string, share float64, fn func()) {
	s := span{ID: rp.tr.id(), Parent: parent, Op: op, Name: name, Replayed: true, Share: share, Start: rp.tr.now()}
	fn()
	s.End = rp.tr.now()
	rp.tr.add(s)
}

// frames replays frames [start, start+n) of rs the way the server produced
// them: fill, LUT, statmon tap and, when encode is set, the record encoder.
// It returns the hash of the frames for comparison with the served ones.
func (rp *replayer) frames(rs *replayStream, parent, op uint64, start, n int, encode bool, share float64) uint64 {
	if rs.pos() != start {
		rs.seek(start)
	}
	h := uint64(fnvOffset)
	for off := 0; off < n; {
		c := min(serveChunk, n-off)
		buf := rp.buf[:c]
		switch {
		case rs.blk != nil:
			rp.timed(parent, op, "streamblock.fill", share, func() { rs.blk.Fill(buf) })
			rp.timed(parent, op, "transform.lut", share, func() { rs.lut.ApplyTo(buf, buf) })
			rp.blockFrames += c
		case rs.trk != nil:
			rp.timed(parent, op, "trunk.fill", share, func() { rs.trk.Fill(buf) })
			rp.trunkFrames += c
		default:
			rp.timed(parent, op, "tes.fill", share, func() { rs.ms.Fill(buf) })
			rp.tesFrames += c
		}
		pos := int64(start + off)
		rp.timed(parent, op, "statmon.observe", share, func() { rs.mon.Observe(pos, buf) })
		rp.monFrames += c
		if encode {
			rp.timed(parent, op, "server.encode", share, func() { rp.out = server.AppendFrameRecord(rp.out[:0], buf) })
			rp.encFrames += c
		}
		h = hashFrames(h, buf)
		off += c
	}
	return h
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashFrames folds the frames' bit patterns into an FNV-1a hash.
func hashFrames(h uint64, xs []float64) uint64 {
	for _, x := range xs {
		b := math.Float64bits(x)
		for i := 0; i < 8; i++ {
			h ^= b & 0xff
			h *= fnvPrime
			b >>= 8
		}
	}
	return h
}

// blockCosts are the block engine's sub-layer costs per refill, timed
// from outside on a plan equal to the engine's: one Davies-Harte path, the
// Gaussian draws it consumes, and the Hermitian FFT at the plan size.
type blockCosts struct {
	refillNs              float64 // one whole refill: path, stitch and handoff
	pathNs, normNs, fftNs float64 // per refill
	block                 int     // emitted frames per refill
}

func calibrateBlock(ctx context.Context, spec *modelspec.Spec, seed uint64) (blockCosts, error) {
	model, _, err := spec.Source()
	if err != nil {
		return blockCosts{}, err
	}
	trunc, err := core.TruncatedPlanForCtx(ctx, model, 0, 0)
	if err != nil {
		return blockCosts{}, err
	}
	eng, err := streamblock.EngineFor(model, trunc, streamblock.Config{})
	if err != nil {
		return blockCosts{}, err
	}
	plan, err := daviesharte.NewPlan(model, streamblock.DefaultTotal, daviesharte.Options{AllowApprox: true})
	if err != nil {
		return blockCosts{}, err
	}
	const reps = 24
	c := blockCosts{block: eng.Block()}
	// Filling exactly one block from a block boundary costs one refill
	// plus the copy out.
	st := eng.NewStream(seed)
	defer st.Close()
	buf := make([]float64, eng.Block())
	c.refillNs = timePer(8, func() { st.Fill(buf) })

	n := plan.Len()
	src := rng.New(seed)
	dst := make([]float64, n)
	var sc daviesharte.Scratch
	c.pathNs = timePer(reps, func() { plan.PathRealInto(dst, &sc, src) })
	// A circulant of size m = 2n consumes m standard normals per path.
	draws := 2 * n
	var sink float64
	c.normNs = timePer(reps, func() {
		for i := 0; i < draws; i++ {
			sink += src.Norm()
		}
	})
	a := make([]complex128, n+1)
	for i := range a {
		a[i] = complex(src.Norm(), src.Norm())
	}
	z := make([]complex128, n)
	var ferr error
	c.fftNs = timePer(reps, func() {
		if err := fft.HermitianReal(dst, a, z); err != nil {
			ferr = err
		}
	})
	if ferr != nil || math.IsNaN(sink) {
		return c, fmt.Errorf("calibrating the block plan: %v", ferr)
	}
	return c, nil
}

// timePer returns fn's median time in ns over reps calls after one warm-up
// call.
func timePer(reps int, fn func()) float64 {
	fn()
	ts := make([]float64, reps)
	for i := range ts {
		t0 := time.Now()
		fn()
		ts[i] = float64(time.Since(t0).Nanoseconds())
	}
	return median(ts)
}

// coldPlanMs times the truncated plan build for the spec's model with an
// empty plan cache.
func coldPlanMs(e *env, r *result, spec *modelspec.Spec) float64 {
	model, _, err := spec.Source()
	if err != nil {
		r.check(false, "plan model: %v", err)
		return 0
	}
	return coldModelPlanMs(e, r, model, 0)
}

func coldModelPlanMs(e *env, r *result, model acf.Model, n int) float64 {
	hosking.Shared.Purge()
	t0 := time.Now()
	_, err := core.TruncatedPlanForCtx(e.ctx, model, n, 0)
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	if err != nil {
		r.check(false, "cold plan build: %v", err)
	}
	return ms
}
