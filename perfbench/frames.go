package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"vbrsim/internal/modelspec"
	"vbrsim/internal/rng"
	"vbrsim/internal/server"
)

const (
	bulkSessions  = 64   // block paper sessions of frames-bulk
	bulkFrames    = 4096 // frames per frames-bulk request
	churnSessions = 10000
	churnFrames   = 16 // frames per frames-churn request
	churnEvery    = 64 // every churnEvery-th churn op is a create/read/delete cycle
	frameClients  = 2
	maxSamples    = 32 // verified requests per client
)

// framesWorkload is frames-bulk (bulk) or frames-churn.
type framesWorkload struct {
	bulk       bool
	fleet      []*fleetSession
	cl         []*framesClient
	block      int           // emitted frames per refill of the paper block engine
	refillCost time.Duration // one refill's time, for injectRefill2x
}

type fleetSession struct {
	id    string
	spec  modelspec.Spec
	pos   int  // frames read so far (the session's position)
	block bool // block engine
}

// framesClient is one closed-loop client's state; only its goroutine
// touches it while a window runs.
type framesClient struct {
	owned   []int
	pick    *rng.Source
	samples []frameSample
	recs    []frameRec
	cycles  int
	creates []float64 // churn create latencies, ms
	capture bytes.Buffer
	decoded []float64
}

// frameSample is a served request kept for the offline check.
type frameSample struct {
	spec   modelspec.Spec
	start  int
	frames []float64
}

// frameRec is a traced request kept for the replay.
type frameRec struct {
	op, span    uint64 // the op and the client span of the frames request
	createSpan  uint64 // churn cycle: the create's client span
	sess        *fleetSession
	start, n    int
	hash        uint64
	decodedSpan span
}

func (w *framesWorkload) setupReps() int { return 5 }
func (w *framesWorkload) clients() int   { return frameClients }

func (w *framesWorkload) setup(e *env) error {
	n := bulkSessions
	if !w.bulk {
		n = churnSessions
	}
	srv, err := startServe(e, n, frameClients, w.refillCost)
	if err != nil {
		return err
	}
	e.srv = srv
	specs := make([]modelspec.Spec, n)
	for i := range specs {
		if w.bulk {
			specs[i] = paperSpec(seedFor(e.cfg.Seed, i))
		} else {
			specs[i] = tesSpec(seedFor(e.cfg.Seed, i))
		}
	}
	ids, _, err := createFleet(e, specs, nil)
	if err != nil {
		return err
	}
	w.fleet = make([]*fleetSession, n)
	for i := range specs {
		w.fleet[i] = &fleetSession{id: ids[i], spec: specs[i], block: w.bulk}
	}
	w.cl = make([]*framesClient, frameClients)
	for c := range w.cl {
		fc := &framesClient{pick: rng.New(seedFor(e.cfg.Seed, 1<<30+c))}
		for i := c; i < n; i += frameClients {
			fc.owned = append(fc.owned, i)
		}
		w.cl[c] = fc
	}
	return nil
}

// prepare finds the engine's block size, for the refill injection and the
// position headers.
func (w *framesWorkload) prepare(e *env) error {
	ref := paperSpec(1)
	bc, err := calibrateBlock(e.ctx, &ref, e.cfg.Seed)
	if err != nil {
		return err
	}
	w.block = bc.block
	w.refillCost = time.Duration(bc.refillNs)
	return nil
}

func (w *framesWorkload) teardown(e *env) {
	e.srv.close()
	e.srv = nil
	w.fleet, w.cl = nil, nil
}

func (w *framesWorkload) op(e *env, c, seq int) (time.Duration, error) {
	fc := w.cl[c]
	if !w.bulk && seq%churnEvery == churnEvery-1 {
		return w.cycle(e, c, fc)
	}
	// Sessions are picked at random (seeded): round-robin would lock the
	// two clients' refills into a fixed phase for the whole run.
	s := w.fleet[fc.owned[fc.pick.Intn(len(fc.owned))]]
	n := bulkFrames
	if !w.bulk {
		n = churnFrames
	}
	var lat time.Duration
	err := tracedOp(e, func(op uint64, done func()) error {
		t0 := time.Now()
		return w.read(e, c, op, s, n, seq, func() {
			lat = time.Since(t0)
			done()
		})
	})
	return lat, err
}

// fetched is one frames response.
type fetched struct {
	frames []float64
	span   uint64 // traced: the client span
	start  int
}

// read fetches the next n frames of s and keeps what the checks need;
// done runs as soon as the response is in.
func (w *framesWorkload) read(e *env, c int, op uint64, s *fleetSession, n, seq int, done func()) error {
	f, err := w.fetch(e, c, op, s, n)
	done()
	if err != nil {
		return err
	}
	return w.keep(e, c, op, s, f, seq)
}

// fetch reads the next n frames of s; traced, the body is captured for the
// offline decode.
func (w *framesWorkload) fetch(e *env, c int, op uint64, s *fleetSession, n int) (fetched, error) {
	fc := w.cl[c]
	cl := e.srv.clients[c]
	m := reqMeta{start: s.pos}
	if s.block {
		m.block = w.block
	}
	if e.tr != nil {
		fc.capture.Reset()
		e.srv.tps[c].capture = &fc.capture
	}
	f := fetched{start: s.pos}
	var err error
	f.span, err = tracedCall(e, op, "frames", m, func(ctx context.Context) error {
		var err error
		f.frames, err = cl.Frames(ctx, s.id, -1, n)
		return err
	})
	e.srv.tps[c].capture = nil
	if err != nil {
		return f, fmt.Errorf("frames %s at %d: %w", s.id, f.start, err)
	}
	if len(f.frames) != n {
		return f, fmt.Errorf("frames %s at %d: got %d of %d frames", s.id, f.start, len(f.frames), n)
	}
	s.pos += n
	return f, nil
}

// keep samples the response for the offline check and, traced, records it
// for the replay.
func (w *framesWorkload) keep(e *env, c int, op uint64, s *fleetSession, f fetched, seq int) error {
	fc := w.cl[c]
	if seq%61 == 0 && len(fc.samples) < maxSamples {
		fc.samples = append(fc.samples, frameSample{spec: s.spec, start: f.start, frames: f.frames})
	}
	if e.tr != nil {
		return w.recordTraced(e, fc, op, f.span, s, f.start, f.frames)
	}
	return nil
}

// recordTraced times the client's frame decoding offline on the captured
// body and keeps the request for the replay.
func (w *framesWorkload) recordTraced(e *env, fc *framesClient, op, spanID uint64, s *fleetSession, start int, frames []float64) error {
	tr := e.tr
	body := fc.capture.Bytes()
	// One slot beyond the frames: a body with extra frames must not fit.
	if cap(fc.decoded) < len(frames)+1 {
		fc.decoded = make([]float64, len(frames)+1)
	}
	out := fc.decoded[:len(frames)+1]
	d := span{ID: tr.id(), Parent: spanID, Op: op, Name: "client.decode", Replayed: true, Start: tr.now()}
	fr := server.NewFrameReader(bytes.NewReader(body))
	got := 0
	for got < len(out) {
		k, err := fr.Read(out[got:])
		got += k
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("decoding the captured body: %w", err)
		}
	}
	d.End = tr.now()
	if got != len(frames) {
		return fmt.Errorf("captured body decodes to %d frames, client returned %d", got, len(frames))
	}
	fc.recs = append(fc.recs, frameRec{
		op: op, span: spanID, sess: s, start: start, n: len(frames),
		hash: hashFrames(fnvOffset, frames), decodedSpan: d,
	})
	return nil
}

// cycle is a churn op: create a block paper session, read from it, delete
// it.
func (w *framesWorkload) cycle(e *env, c int, fc *framesClient) (time.Duration, error) {
	cl := e.srv.clients[c]
	spec := paperSpec(seedFor(e.cfg.Seed, 1<<20+c<<16+fc.cycles))
	fc.cycles++
	var lat time.Duration
	err := tracedOp(e, func(op uint64, done func()) error {
		t0 := time.Now()
		var info server.SessionInfo
		createSpan, err := tracedCall(e, op, "create", reqMeta{}, func(ctx context.Context) error {
			var err error
			info, err = cl.CreateStream(ctx, &spec)
			return err
		})
		fc.creates = append(fc.creates, float64(time.Since(t0).Nanoseconds())/1e6)
		if err != nil {
			lat = time.Since(t0)
			done()
			return fmt.Errorf("create: %w", err)
		}
		s := &fleetSession{id: info.ID, spec: spec, block: true}
		// The delete follows the read directly; the read's bookkeeping runs
		// after the op's timed part.
		f, rerr := w.fetch(e, c, op, s, churnFrames)
		_, derr := tracedCall(e, op, "delete", reqMeta{}, func(ctx context.Context) error {
			return cl.CloseStream(ctx, info.ID)
		})
		lat = time.Since(t0)
		done()
		if rerr == nil {
			rerr = w.keep(e, c, op, s, f, fc.cycles*61)
			if e.tr != nil && rerr == nil {
				fc.recs[len(fc.recs)-1].createSpan = createSpan
			}
		}
		return errors.Join(rerr, derr)
	})
	return lat, err
}

// verify compares the sampled requests with offline generation from the
// same spec, seed and position.
func (w *framesWorkload) verify(e *env, r *result) {
	for _, fc := range w.cl {
		for _, s := range fc.samples {
			want, err := s.spec.Frames(e.ctx, s.start, len(s.frames), 0)
			r.check(err == nil && equalBits(want, s.frames),
				"served frames %d..%d of seed %d differ from offline generation (err %v)", s.start, s.start+len(s.frames), s.spec.Seed, err)
		}
	}
	if !w.bulk {
		var creates []float64
		for _, fc := range w.cl {
			creates = append(creates, fc.creates...)
		}
		if len(creates) > 0 {
			e.cfg.logf("create_p50_ms %.3f create_p90_ms %.3f (n=%d churn creates, all windows)",
				quantile(creates, 0.5), quantile(creates, 0.9), len(creates))
		}
	}
}

func equalBits(a, b []float64) bool {
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

// layers replays every traced request through the layers' public calls,
// checks the replay against the served frames, and derives the per-layer
// metrics.
func (w *framesWorkload) layers(e *env, r *result, a, b window) {
	tr := e.tr
	ctx := e.ctx
	ops := tr.windowOps()
	var recs []frameRec
	for _, fc := range w.cl {
		for _, rec := range fc.recs {
			if ops[rec.op] {
				recs = append(recs, rec)
			}
		}
	}
	// A session's replay opens at its first traced request and closes
	// after its last, so a 10k-session fleet is not held open at once.
	// Block sessions that must seek open before the timed replay: a seek
	// refills, and only the refills inside timed fills may be counted.
	last := map[*fleetSession]int{}
	for i, rec := range recs {
		last[rec.sess] = i
	}
	streams := map[*fleetSession]*replayStream{}
	defer func() {
		for _, rs := range streams {
			rs.close()
		}
	}()
	var opens []float64
	open := func(rec frameRec) bool {
		if rec.createSpan != 0 {
			// A churn session: time the engine open its create made.
			h, ok := tr.handlerOf(rec.createSpan)
			t0 := tr.now()
			st, err := rec.sess.spec.OpenCtx(ctx, 0)
			t1 := tr.now()
			if err != nil {
				r.check(false, "replay open: %v", err)
				return false
			}
			st.Close()
			if ok {
				tr.add(span{ID: tr.id(), Parent: h, Op: rec.op, Name: "modelspec.open", Replayed: true, Start: t0, End: t1})
			}
			opens = append(opens, float64(t1-t0)/1e6)
		}
		rs, err := openReplay(ctx, &rec.sess.spec)
		if err != nil {
			r.check(false, "replay open: %v", err)
			return false
		}
		// A new stream is already at 0: it must refill inside the timed
		// fill, as the server's did.
		if rs.pos() != rec.start {
			rs.seek(rec.start)
		}
		streams[rec.sess] = rs
		return true
	}
	for _, rec := range recs {
		if rec.sess.block && rec.start != 0 && streams[rec.sess] == nil && !open(rec) {
			return
		}
	}
	rp := newReplayer(tr)
	refills0 := e.srv.counters()["vbrsim_streamblock_refills_total"]
	mismatched := 0
	for i, rec := range recs {
		if streams[rec.sess] == nil && !open(rec) {
			return
		}
		tr.add(rec.decodedSpan)
		h, ok := tr.handlerOf(rec.span)
		if !ok {
			r.check(false, "no server span for traced request %d", rec.span)
			continue
		}
		if rp.frames(streams[rec.sess], h, rec.op, rec.start, rec.n, true, 1) != rec.hash {
			mismatched++
		}
		if last[rec.sess] == i {
			streams[rec.sess].close()
			delete(streams, rec.sess)
		}
	}
	replayRefills := e.srv.counters()["vbrsim_streamblock_refills_total"] - refills0
	r.check(mismatched == 0, "%d of %d replayed requests differ from the served frames", mismatched, len(recs))

	if w.bulk {
		// The fleet was created under the trace in set-up: replay its
		// engine opens, then delete it under the trace too.
		specs := make([]modelspec.Spec, len(w.fleet))
		ids := make([]string, len(w.fleet))
		for i, s := range w.fleet {
			specs[i], ids[i] = s.spec, s.id
		}
		opens = append(opens, replayOpens(e, tr, specs)...)
		if err := deleteAll(e, ids); err != nil {
			r.check(false, "deleting the fleet: %v", err)
		}
		w.fleet = nil
	}
	ref := paperSpec(1)
	e.planMs = coldPlanMs(e, r, &ref)
	w.report(e, r, rp, tr.totals(tr.allOps()), tr.totals(ops), a, b, replayRefills, opens)
}

// replayOpens times Spec.OpenCtx (warm plan cache) for the specs created
// in set-up, one under each create span. The fleet's specs differ only in
// seed, so which spec a span gets does not change the open's cost.
func replayOpens(e *env, tr *tracer, specs []modelspec.Spec) []float64 {
	var opens []float64
	for i, cs := range tr.spansNamed("client.create") {
		if i >= len(specs) {
			break
		}
		h, ok := tr.handlerOf(cs.ID)
		if !ok {
			continue
		}
		t0 := tr.now()
		st, err := specs[i].OpenCtx(e.ctx, 0)
		t1 := tr.now()
		if err != nil {
			continue
		}
		st.Close()
		tr.add(span{ID: tr.id(), Parent: h, Op: cs.Op, Name: "modelspec.open", Replayed: true, Start: t0, End: t1})
		opens = append(opens, float64(t1-t0)/1e6)
	}
	return opens
}

func (w *framesWorkload) report(e *env, r *result, rp *replayer, all, win layerTotals, a, b window, refills float64, opens []float64) {
	setLayerDefaults(r)
	r.set("server.frames_us", win.meanSelf("server.frames")/1e3, win.count["server.frames"])
	// Churn creates happen in the window; a fleet is created in set-up.
	creates := win
	if win.count["server.create"] == 0 {
		creates = all
	}
	r.set("server.create_ms", median(creates.selfs["server.create"])/1e6, creates.count["server.create"])
	r.set("server.delete_us", all.meanDur("server.delete")/1e3, all.count["server.delete"])
	r.set("client.transport_us", win.meanSelf("client.frames")/1e3, win.count["client.frames"])
	r.set("client.decode_ns_per_frame", win.perFrame("client.decode", rp.encFrames), rp.encFrames)
	r.set("server.encode_ns_per_frame", win.perFrame("server.encode", rp.encFrames), rp.encFrames)
	if len(opens) > 0 {
		r.set("modelspec.open_ms", median(opens), len(opens))
	}
	setBlockLayers(e, r, rp, win, refills)
	r.set("tes.fill_ns_per_frame", win.perFrame("tes.fill", rp.tesFrames), rp.tesFrames)
	r.set("statmon.observe_ns_per_frame", win.perFrame("statmon.observe", rp.monFrames), rp.monFrames)
	commonLayers(e, r, win, a, b)
}

// setBlockLayers splits the replayed block fill into its sub-layers using
// the refill count the replay caused and the per-refill costs timed on an
// equal plan; the stitch is what the fill costs beyond the path.
func setBlockLayers(e *env, r *result, rp *replayer, win layerTotals, refills float64) {
	if rp.blockFrames == 0 {
		return
	}
	ref := paperSpec(1)
	bc, err := calibrateBlock(e.ctx, &ref, e.cfg.Seed)
	if err != nil {
		r.check(false, "calibrating block costs: %v", err)
		return
	}
	frames := float64(rp.blockFrames)
	fill := win.perFrame("streamblock.fill", rp.blockFrames)
	path := bc.pathNs * refills / frames
	r.set("streamblock.fill_ns_per_frame", fill, rp.blockFrames)
	r.set("transform.lut_ns_per_frame", win.perFrame("transform.lut", rp.blockFrames), rp.blockFrames)
	r.set("daviesharte.path_ns_per_frame", path, int(refills))
	r.set("streamblock.stitch_ns_per_frame", fill-path, rp.blockFrames)
	r.set("rng.norm_ns_per_frame", bc.normNs*refills/frames, int(refills))
	r.set("fft.hermitian_ns_per_frame", bc.fftNs*refills/frames, int(refills))
}

// setLayerDefaults sets every per-layer metric to 0, the value of a layer
// the workload bypasses; the workload then overwrites what it measured.
func setLayerDefaults(r *result) {
	for _, d := range perLayer {
		if _, ok := r.Metrics[d.Name]; !ok {
			r.set(d.Name, 0, 0)
		}
	}
}

// commonLayers sets the metrics every serving workload reports: statuses,
// server-side counters of the traced window, plan cache, trace overhead and
// the layer sum check.
func commonLayers(e *env, r *result, win layerTotals, a, b window) {
	h := e.srv.h
	r.set("server.non2xx", float64(h.non2xx.Load()), win.nroot)
	r.set("admission.rejects", float64(h.rejects.Load()), win.nroot)
	d := e.counterDelta
	if fr := d["vbrsim_frames_streamed_total"]; fr > 0 {
		r.set("streamblock.refills_per_kframe", 1e3*d["vbrsim_streamblock_refills_total"]/fr, int(fr))
		r.set("statmon.observed_frac", d["vbrsim_statmon_frames_sampled_total"]/fr, int(fr))
	}
	cs := e.planStats
	if n := cs.Hits + cs.Misses; n > 0 {
		r.set("hosking.cache_hit_frac", float64(cs.Hits)/float64(n), int(n))
	}
	r.set("hosking.plan_ms", e.planMs, 1)
	traceChecks(e, r, win, a, b)
}

// traceChecks reports the tracing overhead and checks that the layers'
// self times add up to the traced end-to-end figure within the op latency
// bound.
func traceChecks(e *env, r *result, win layerTotals, a, b window) {
	r.set("trace_overhead", b.meanLatency()/a.meanLatency(), b.ops)
	r.set("layer_sum_ratio", win.sumRatio(), win.nroot)
	checkLayerSum(e, win.sumRatio())
	e.cfg.logf("traced: %d ops, layer self times (ms total): %s", win.nroot, fmtTotals(win.self))
	e.cfg.logf("replayed time beyond its parent's interval (ms total): %s", fmtTotals(win.over))
}

// checkLayerSum reports a failure when the layers' self times do not sum
// to the traced end-to-end figure within the op latency bound. It checks
// the attribution, not the program: the replayed calls are timed after the
// window, and a host that slows down in between (other tenants, steal) can
// push them past their parents' intervals. So it is reported in the log and
// in layer_sum_ratio, and does not mark the run's outputs incorrect.
func checkLayerSum(e *env, ratio float64) {
	bound := findMetric(endToEnd, "op_p50_us").Bound
	if math.IsNaN(ratio) || math.Abs(ratio-1) > bound {
		e.cfg.logf("FAIL: layer self times sum to %.3f of the traced end-to-end time (bound %.2f)", ratio, bound)
	}
}

func fmtTotals(ns map[string]float64) string {
	s := ""
	for _, k := range sortedKeys(ns) {
		s += fmt.Sprintf("%s=%.1f ", k, ns[k]/1e6)
	}
	return s
}
