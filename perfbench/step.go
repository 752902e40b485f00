package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"vbrsim/internal/modelspec"
	"vbrsim/internal/server"
	"vbrsim/internal/trunk"
)

const (
	stepSessions = 64 // block paper sessions of step-fleet
	stepTrunks   = 4
	trunkSources = 16   // block paper sources per trunk
	stepFrames   = 1024 // frames each session advances per round
)

// stepWorkload is step-fleet: one simulation client stepping a fleet of
// sessions and trunks in lockstep, frames not returned.
type stepWorkload struct {
	specs  []modelspec.Spec
	trunks []modelspec.TrunkSpec
	ids    []string // the sessions, then the trunks
	pos    int      // every member's position: they advance together
	recs   []stepRec
}

// stepRec is a traced round kept for the replay.
type stepRec struct {
	op, span uint64
	start    int
}

func (w *stepWorkload) prepare(*env) error { return nil }
func (w *stepWorkload) setupReps() int     { return 5 }
func (w *stepWorkload) clients() int       { return 1 }

func (w *stepWorkload) setup(e *env) error {
	srv, err := startServe(e, stepSessions+stepTrunks, 1, 0)
	if err != nil {
		return err
	}
	e.srv = srv
	w.specs = make([]modelspec.Spec, stepSessions)
	for i := range w.specs {
		w.specs[i] = paperSpec(seedFor(e.cfg.Seed, i))
	}
	w.trunks = make([]modelspec.TrunkSpec, stepTrunks)
	for i := range w.trunks {
		w.trunks[i] = trunkSpec(seedFor(e.cfg.Seed, 1<<16+i), trunkSources)
	}
	ids, tids, err := createFleet(e, w.specs, w.trunks)
	if err != nil {
		return err
	}
	w.ids = append(ids, tids...)
	w.pos = 0
	w.recs = nil
	return nil
}

func (w *stepWorkload) teardown(e *env) {
	e.srv.close()
	e.srv = nil
}

func (w *stepWorkload) op(e *env, c, seq int) (time.Duration, error) {
	cl := e.srv.clients[c]
	var lat time.Duration
	err := tracedOp(e, func(op uint64, done func()) error {
		var res []server.StepResult
		t0 := time.Now()
		spanID, err := tracedCall(e, op, "step", reqMeta{}, func(ctx context.Context) error {
			var err error
			res, err = cl.Step(ctx, w.ids, stepFrames, false)
			return err
		})
		lat = time.Since(t0)
		done()
		if err != nil {
			return fmt.Errorf("step at %d: %w", w.pos, err)
		}
		if len(res) != len(w.ids) {
			return fmt.Errorf("step at %d: %d results for %d sessions", w.pos, len(res), len(w.ids))
		}
		for i, r := range res {
			if r.ID != w.ids[i] || r.Gone || r.Start != w.pos || r.Pos != w.pos+stepFrames {
				return fmt.Errorf("step at %d: session %s moved %d -> %d (gone %v), want %d -> %d",
					w.pos, r.ID, r.Start, r.Pos, r.Gone, w.pos, w.pos+stepFrames)
			}
		}
		if e.tr != nil {
			w.recs = append(w.recs, stepRec{op: op, span: spanID, start: w.pos})
		}
		w.pos += stepFrames
		return nil
	})
	return lat, err
}

// verify reads the next frames of a sample of the fleet and compares them
// with offline generation at the position the steps reached.
func (w *stepWorkload) verify(e *env, r *result) {
	const n = 16
	for i := 0; i < stepSessions; i += 8 {
		w.checkMember(e, r, i, n)
	}
	for i := stepSessions; i < len(w.ids); i++ {
		w.checkMember(e, r, i, n)
	}
}

func (w *stepWorkload) checkMember(e *env, r *result, i, n int) {
	got, err := e.srv.clients[0].Frames(e.ctx, w.ids[i], -1, n)
	if err != nil {
		r.check(false, "reading %s after the steps: %v", w.ids[i], err)
		return
	}
	var want []float64
	if i < stepSessions {
		want, err = w.specs[i].Frames(e.ctx, w.pos, n, 0)
	} else {
		want, err = trunkFrames(e.ctx, &w.trunks[i-stepSessions], w.pos, n)
	}
	r.check(err == nil && equalBits(got, want),
		"%s frames %d..%d after stepping differ from offline generation (err %v)", w.ids[i], w.pos, w.pos+n, err)
}

func trunkFrames(ctx context.Context, spec *modelspec.TrunkSpec, from, n int) ([]float64, error) {
	t, err := trunk.Open(ctx, spec, trunk.Options{})
	if err != nil {
		return nil, err
	}
	defer t.Close()
	if err := t.SeekCtx(ctx, from); err != nil {
		return nil, err
	}
	out := make([]float64, n)
	t.Fill(out)
	return out, nil
}

// layers replays every traced round serially through the layers' public
// calls. The server fans a round out over its step workers, so each
// replayed call is charged to the round at 1/workers of its time; the
// serial replay time over the handler time is the fan-out's speed-up.
func (w *stepWorkload) layers(e *env, r *result, a, b window) {
	tr := e.tr
	ops := tr.windowOps()
	var recs []stepRec
	for _, rec := range w.recs {
		if ops[rec.op] {
			recs = append(recs, rec)
		}
	}
	if len(recs) == 0 {
		r.check(false, "no traced step rounds")
		return
	}
	streams := make([]*replayStream, 0, len(w.ids))
	defer func() {
		for _, rs := range streams {
			rs.close()
		}
	}()
	for i := range w.ids {
		var rs *replayStream
		var err error
		if i < stepSessions {
			rs, err = openReplay(e.ctx, &w.specs[i])
		} else {
			rs, err = openTrunkReplay(e.ctx, &w.trunks[i-stepSessions])
		}
		if err != nil {
			r.check(false, "replay open: %v", err)
			return
		}
		rs.seek(recs[0].start)
		streams = append(streams, rs)
	}
	workers := runtime.GOMAXPROCS(0) // the server's step fan-out width
	share := 1 / float64(min(workers, len(w.ids)))
	rp := newReplayer(tr)
	refills0 := e.srv.counters()["vbrsim_streamblock_refills_total"]
	var serial float64
	for _, rec := range recs {
		h, ok := tr.handlerOf(rec.span)
		if !ok {
			r.check(false, "no server span for traced round %d", rec.span)
			continue
		}
		t0 := tr.now()
		for _, rs := range streams {
			rp.frames(rs, h, rec.op, rec.start, stepFrames, false, share)
		}
		serial += float64(tr.now() - t0)
	}
	refills := e.srv.counters()["vbrsim_streamblock_refills_total"] - refills0

	opens := replayOpens(e, tr, w.specs)
	if err := deleteAll(e, w.ids); err != nil {
		r.check(false, "deleting the fleet: %v", err)
	}
	w.ids = nil
	ref := paperSpec(1)
	e.planMs = coldPlanMs(e, r, &ref)

	all, win := tr.totals(tr.allOps()), tr.totals(ops)
	setLayerDefaults(r)
	r.set("server.step_us", win.meanSelf("server.step")/1e3, win.count["server.step"])
	r.set("server.create_ms", median(all.selfs["server.create"])/1e6, all.count["server.create"])
	r.set("server.delete_us", all.meanDur("server.delete")/1e3, all.count["server.delete"])
	r.set("client.transport_us", win.meanSelf("client.step")/1e3, win.count["client.step"])
	if len(opens) > 0 {
		r.set("modelspec.open_ms", median(opens), len(opens))
	}
	setBlockLayers(e, r, rp, win, refills)
	r.set("trunk.fill_ns_per_frame", win.perFrame("trunk.fill", rp.trunkFrames), rp.trunkFrames)
	r.set("statmon.observe_ns_per_frame", win.perFrame("statmon.observe", rp.monFrames), rp.monFrames)
	r.set("par.step_speedup", serial/win.dur["server.step"], len(recs))
	commonLayers(e, r, win, a, b)
}
