// Command loadgen exercises trafficd with concurrent streams, in two modes.
//
// Remote mode (-addr) drives a running daemon over HTTP: it opens -streams
// sessions of the paper model, optionally advances the whole fleet through
// the batched POST /v1/streams/step endpoint, pulls -frames frames from each
// in parallel, verifies every stream against offline generation with the
// same seed (the determinism contract), and reports throughput. With -trunk
// it additionally smoke-tests a trunk session: a superposition of that many
// paper sources created, stepped, read, and verified bit-identical against
// the offline trunk engine.
//
// Capacity mode (-selfserve) is the serving-capacity harness: it embeds the
// server in-process (no TCP, requests dispatched straight into ServeHTTP),
// ramps a fleet of cheap TES sessions up to -sessions over -ramp, then
// hammers frame reads from -workers goroutines for -duration, recording
// per-request latency. Results (mean ns/request, p50/p99 latency,
// frames/sec/core) are written as benchreport entries, so BENCH_6.json is
// diffed by the same benchdiff gate as the cmd/bench ablation suite.
//
// Usage:
//
//	loadgen -addr http://127.0.0.1:8080 -streams 32 -frames 2000
//	loadgen -addr ... -streams 64 -step 4096        # batched-stepping driver
//	loadgen -addr ... -trunk 16                     # trunk-session smoke
//	loadgen -selfserve -profile full -o BENCH_6.json
//	loadgen -selfserve -profile smoke -compare BENCH_6.json -threshold 0.75
//	loadgen -selfserve -profile step -o BENCH_7.json   # batched-stepping rung
//	loadgen -selfserve -sessions 10000 -duration 5s
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"vbrsim/client"
	"vbrsim/internal/benchreport"
	"vbrsim/internal/modelspec"
	"vbrsim/internal/obs"
	"vbrsim/internal/server"
	"vbrsim/internal/trunk"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// run executes the load test; split from main for testability.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr    = fs.String("addr", "", "trafficd base URL (remote mode), e.g. http://127.0.0.1:8080")
		streams = fs.Int("streams", 32, "remote mode: concurrent streaming sessions to open")
		frames  = fs.Int("frames", 2000, "remote mode: frames to pull per stream")
		step    = fs.Int("step", 0, "remote mode: advance the whole fleet by this many frames via POST /v1/streams/step before reading")
		seed    = fs.Uint64("seed", 1000, "seed of the first stream (stream i uses seed+i)")
		sources = fs.Int("trunk", 0, "remote mode: also smoke-test one trunk session of this many paper sources")
		verify  = fs.Bool("verify", true, "remote mode: check every stream against offline generation with the same seed")

		selfserve = fs.Bool("selfserve", false, "capacity mode: embed the server in-process and measure serving capacity")
		sessions  = fs.Int("sessions", 10000, "capacity mode: concurrent sessions to ramp to")
		ramp      = fs.Duration("ramp", 0, "capacity mode: time over which the fleet ramps to -sessions (0 = as fast as possible)")
		duration  = fs.Duration("duration", 5*time.Second, "capacity mode: steady-state measurement window at full fleet")
		workers   = fs.Int("workers", 64, "capacity mode: concurrent request goroutines")
		read      = fs.Int("read", 4, "capacity mode: frames per request")
		procs     = fs.Int("procs", 8, "capacity mode: GOMAXPROCS for the serving stack (per-core numbers divide by this)")
		profile   = fs.String("profile", "", "capacity mode: canned run set, \"full\" (BENCH_6 refresh), \"smoke\" (CI gate subset), or \"step\" (batched-stepping rung for BENCH_7)")
		out       = fs.String("o", "", "capacity mode: write results as a benchreport JSON file")
		compare   = fs.String("compare", "", "capacity mode: old report to diff against; regressions beyond -threshold fail")
		threshold = fs.Float64("threshold", 0.75, "fractional ns/op regression tolerated under -compare")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *selfserve {
		return runCapacity(ctx, capacityFlags{
			sessions: *sessions, workers: *workers, read: *read,
			ramp: *ramp, duration: *duration, seed: *seed, procs: *procs,
			profile: *profile, out: *out, compare: *compare, threshold: *threshold,
		}, stdout)
	}
	if *addr == "" {
		return fmt.Errorf("missing -addr base URL (or -selfserve for capacity mode)")
	}
	c := client.New(*addr)
	if err := c.Healthz(ctx); err != nil {
		return err
	}

	start := time.Now()

	// Open the whole fleet first: the batched step needs every session id.
	infos := make([]server.SessionInfo, *streams)
	errs := make([]error, *streams)
	var wg sync.WaitGroup
	for i := 0; i < *streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := paperSpecFor(*seed + uint64(i))
			infos[i], errs[i] = c.CreateStream(ctx, &spec)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("create stream %d: %w", i, err)
		}
	}

	// One batched step advances every session in a single request — the
	// simulation-driver shape the step endpoint exists for.
	if *step > 0 {
		ids := make([]string, len(infos))
		for i, info := range infos {
			ids[i] = info.ID
		}
		results, err := c.Step(ctx, ids, *step, false)
		if err != nil {
			return fmt.Errorf("batched step: %w", err)
		}
		for i, res := range results {
			if res.Pos != *step {
				return fmt.Errorf("session %s stepped to %d, want %d", ids[i], res.Pos, *step)
			}
		}
	}

	// Pull and verify in parallel; served frames must continue exactly
	// where the step left the session.
	for i := 0; i < *streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = runStream(ctx, c, infos[i], *seed+uint64(i), *step, *frames, *verify)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	failed := 0
	for i, err := range errs {
		if err != nil {
			failed++
			fmt.Fprintf(stderr, "stream %d: %v\n", i, err)
		}
	}
	total := float64((*streams - failed) * *frames)
	fmt.Fprintf(stdout, "%d/%d streams ok, %d frames each in %v (%.0f frames/s aggregate)\n",
		*streams-failed, *streams, *frames, elapsed.Round(time.Millisecond), total/elapsed.Seconds())
	if failed > 0 {
		return fmt.Errorf("%d of %d streams failed", failed, *streams)
	}

	if *sources > 0 {
		if err := runTrunkSmoke(ctx, c, *sources, *seed, *frames, *verify); err != nil {
			return fmt.Errorf("trunk smoke: %w", err)
		}
		fmt.Fprintf(stdout, "trunk smoke ok: %d sources, %d frames verified\n", *sources, *frames)
	}
	return nil
}

func paperSpecFor(seed uint64) modelspec.Spec {
	spec := modelspec.Paper()
	spec.Seed = seed
	return spec
}

// runStream pulls all frames of one already-open session in two requests
// (testing session-position continuity), optionally verifies against
// offline generation at the stepped offset, and closes the session.
func runStream(ctx context.Context, c *client.Client, info server.SessionInfo, seed uint64, offset, frames int, verify bool) error {
	defer c.CloseStream(ctx, info.ID)

	half := frames / 2
	got, err := c.Frames(ctx, info.ID, -1, half)
	if err != nil {
		return err
	}
	rest, err := c.Frames(ctx, info.ID, -1, frames-half)
	if err != nil {
		return err
	}
	got = append(got, rest...)
	if len(got) != frames {
		return fmt.Errorf("got %d frames, want %d", len(got), frames)
	}
	if !verify {
		return nil
	}
	spec := paperSpecFor(seed)
	want, err := spec.Frames(ctx, 0, offset+frames, 0)
	if err != nil {
		return err
	}
	for i := range got {
		if got[i] != want[offset+i] {
			return fmt.Errorf("frame %d: server %v, offline %v", offset+i, got[i], want[offset+i])
		}
	}
	return nil
}

// runTrunkSmoke creates one trunk session of n homogeneous paper sources,
// reads, batch-steps, and seeks it, verifying every returned frame against
// the offline trunk engine — the full trunk-session surface in one pass.
func runTrunkSmoke(ctx context.Context, c *client.Client, n int, seed uint64, frames int, verify bool) error {
	paper := modelspec.Paper()
	spec := modelspec.TrunkSpec{
		Seed: seed + 1<<32,
		Components: []modelspec.TrunkComponent{
			{Count: n, Spec: modelspec.Spec{ACF: paper.ACF, Marginal: paper.Marginal}},
		},
	}
	info, err := c.CreateTrunk(ctx, &spec)
	if err != nil {
		return err
	}
	defer c.CloseStream(ctx, info.ID)
	if info.Kind != "trunk" || info.Sources != n {
		return fmt.Errorf("trunk session info: kind=%q sources=%d, want trunk/%d", info.Kind, info.Sources, n)
	}

	half := frames / 2
	got, err := c.Frames(ctx, info.ID, -1, half)
	if err != nil {
		return err
	}
	// Step the trunk session through the batched endpoint with frames
	// included; it serves the second half.
	results, err := c.Step(ctx, []string{info.ID}, frames-half, true)
	if err != nil {
		return err
	}
	if len(results) != 1 || len(results[0].Frames) != frames-half {
		return fmt.Errorf("trunk step results: %+v", results)
	}
	got = append(got, results[0].Frames...)
	if !verify {
		return nil
	}

	tr, err := trunk.Open(ctx, &spec, trunk.Options{})
	if err != nil {
		return err
	}
	defer tr.Close()
	want := make([]float64, frames)
	tr.Fill(want)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("trunk frame %d: server %v, offline %v", i, got[i], want[i])
		}
	}

	// Seek replay through from=: the session must land back on the offline
	// trace mid-stream.
	probe, err := c.Frames(ctx, info.ID, frames/4, 64)
	if err != nil {
		return err
	}
	for i := range probe {
		if math.Float64bits(probe[i]) != math.Float64bits(want[frames/4+i]) {
			return fmt.Errorf("trunk replay frame %d: %v, want %v", frames/4+i, probe[i], want[frames/4+i])
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Capacity mode

type capacityFlags struct {
	sessions, workers, read, procs int
	ramp, duration                 time.Duration
	seed                           uint64
	profile, out, compare          string
	threshold                      float64
}

// capacityRun is one measured configuration; name keys the benchreport
// entry so the benchdiff gate can match it across reports.
type capacityRun struct {
	name     string
	sessions int
	ramp     time.Duration
	// stepN > 0 selects the batched-stepping measurement instead of frame
	// reads: one driver goroutine advances the whole fleet by stepN frames
	// per POST /v1/streams/step round.
	stepN int
}

// runCapacity executes the requested runs and writes/diffs the report.
func runCapacity(ctx context.Context, f capacityFlags, stdout io.Writer) error {
	var runs []capacityRun
	switch f.profile {
	case "":
		runs = []capacityRun{{
			name:     fmt.Sprintf("ServeFrames/sessions%d", f.sessions),
			sessions: f.sessions, ramp: f.ramp,
		}}
	case "smoke":
		// The CI subset: small enough to finish in seconds, present in the
		// committed full report so -compare has something to diff.
		runs = []capacityRun{
			{name: "ServeFrames/sessions1k", sessions: 1000},
		}
	case "full":
		// The committed BENCH_6.json set: 1k and 10k steady fleets and the
		// 100k-session ramp that is the capacity headline.
		runs = []capacityRun{
			{name: "ServeFrames/sessions1k", sessions: 1000},
			{name: "ServeFrames/sessions10k", sessions: 10000},
			{name: "ServeFrames/ramp100k", sessions: 100000, ramp: f.ramp},
		}
	case "step":
		// The batched-stepping rung for BENCH_7.json: one simulation driver
		// advancing a block-engine fleet through POST /v1/streams/step, the
		// endpoint's sticky-chunk fan-out doing the parallelism. Written
		// with -o BENCH_7.json it merges next to the cmd/bench ladder
		// entries rather than replacing the file.
		runs = []capacityRun{
			{name: "StepFleet/sessions256-n1024", sessions: 256, stepN: 1024},
		}
	default:
		return fmt.Errorf("unknown -profile %q (want \"full\", \"smoke\", or \"step\")", f.profile)
	}

	if f.procs > 0 {
		old := runtime.GOMAXPROCS(f.procs)
		defer runtime.GOMAXPROCS(old)
	}
	var old benchreport.Report
	if f.compare != "" {
		var err error
		if old, err = benchreport.ReadFile(f.compare); err != nil {
			return err
		}
	}

	rep := benchreport.Report{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Date:       time.Now().UTC().Format(time.RFC3339),
		Benchmarks: make(map[string]benchreport.Entry),
	}
	for _, cr := range runs {
		var res capacityResult
		var err error
		if cr.stepN > 0 {
			res, err = measureStep(ctx, stepConfig{
				sessions: cr.sessions, stepN: cr.stepN,
				duration: f.duration, seed: f.seed,
			})
		} else {
			res, err = measureCapacity(ctx, capacityConfig{
				sessions: cr.sessions, workers: f.workers,
				read: f.read, ramp: cr.ramp, duration: f.duration, seed: f.seed,
			})
		}
		if err != nil {
			return fmt.Errorf("%s: %w", cr.name, err)
		}
		rep.Benchmarks[cr.name] = res.entry()
		srvP99 := "n/a"
		if res.serverP99OK {
			srvP99 = res.serverP99.Round(time.Microsecond).String()
		}
		fmt.Fprintf(stdout, "%-34s %9.0f ns/req  p50 %8v  p99 %8v  srv-p99 %8s  %9.0f frames/s  %8.0f frames/s/core  (ramp %v)\n",
			cr.name, res.meanNs, res.p50.Round(time.Microsecond), res.p99.Round(time.Microsecond), srvP99,
			res.framesPerSec, res.framesPerSecPerCore(), res.rampElapsed.Round(time.Millisecond))
	}

	if f.compare != "" {
		deltas, err := benchreport.Compare(old, rep, f.threshold)
		for _, d := range deltas {
			if d.Missing {
				fmt.Fprintf(stdout, "%-34s %12.0f ns/req   (not in %s)\n", d.Name, d.New, f.compare)
				continue
			}
			fmt.Fprintf(stdout, "%-34s %12.0f -> %10.0f ns/req  %+6.1f%%\n", d.Name, d.Old, d.New, 100*d.Frac)
		}
		if err != nil {
			return fmt.Errorf("capacity vs %s: %w", f.compare, err)
		}
		fmt.Fprintf(stdout, "no capacity regression beyond %.0f%% vs %s\n", 100*f.threshold, f.compare)
	}
	if f.out != "" {
		// Merge rather than replace: cmd/bench and loadgen both contribute
		// entries to the committed report, so rungs already recorded there
		// under other names survive a refresh of this profile's subset.
		if existing, err := benchreport.ReadFile(f.out); err == nil {
			for name, e := range existing.Benchmarks {
				if _, ok := rep.Benchmarks[name]; !ok {
					rep.Benchmarks[name] = e
				}
			}
		}
		if err := rep.WriteFile(f.out); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", f.out)
	}
	return nil
}

type capacityConfig struct {
	sessions, workers, read int
	ramp, duration          time.Duration
	seed                    uint64
}

type capacityResult struct {
	sessions, workers, read int
	gomaxprocs              int
	rampElapsed             time.Duration
	requests                int
	meanNs                  float64
	p50, p99                time.Duration
	framesPerSec            float64
	// serverP99 is the p99 of vbrsim_http_request_seconds{endpoint="frames"}
	// scraped from the server's own /metrics after the window — the
	// server-side cross-check of the client-measured p99 above.
	serverP99   time.Duration
	serverP99OK bool
}

func (r capacityResult) framesPerSecPerCore() float64 {
	return r.framesPerSec / float64(r.gomaxprocs)
}

func (r capacityResult) entry() benchreport.Entry {
	e := benchreport.Entry{
		NsPerOp:    r.meanNs,
		N:          r.requests,
		GOMAXPROCS: r.gomaxprocs,
		Extra: map[string]float64{
			"sessions":            float64(r.sessions),
			"workers":             float64(r.workers),
			"frames_per_request":  float64(r.read),
			"ramp_seconds":        r.rampElapsed.Seconds(),
			"p50_us":              float64(r.p50) / 1e3,
			"p99_us":              float64(r.p99) / 1e3,
			"frames_per_sec":      r.framesPerSec,
			"frames_per_sec_core": r.framesPerSecPerCore(),
		},
	}
	if r.serverP99OK {
		e.Extra["server_p99_ms"] = float64(r.serverP99) / 1e6
	}
	return e
}

// scrapeServerP99 reads the server's request-latency histogram off its own
// /metrics page and returns the interpolated p99 of the frames endpoint.
func scrapeServerP99(srv *server.Server) (time.Duration, bool) {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	fams, err := obs.ParseExposition(rec.Body)
	if err != nil {
		return 0, false
	}
	q, ok := obs.HistogramQuantile(fams["vbrsim_http_request_seconds"], `endpoint="frames"`, 0.99)
	if !ok {
		return 0, false
	}
	return time.Duration(q * float64(time.Second)), true
}

// tesSpec is the cheapest session the server admits (cost 1 unit, no
// Gaussian plan): a TES modulo-1 process mapped through a lognormal
// marginal. The fleet is heterogeneous only in seed.
func tesSpec(seed uint64) modelspec.Spec {
	return modelspec.Spec{
		Engine:   modelspec.EngineTES,
		Seed:     seed,
		TES:      &modelspec.TESSpec{Alpha: 0.3},
		Marginal: &modelspec.MarginalSpec{Kind: "lognormal", Mu: 9.6, Sigma: 0.4},
	}
}

// discardWriter is a ResponseWriter that keeps only the status code: the
// harness measures the serving stack, not response-buffer copies.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header {
	if w.h == nil {
		w.h = make(http.Header, 4)
	}
	return w.h
}
func (w *discardWriter) WriteHeader(code int) { w.code = code }
func (w *discardWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return len(p), nil
}
func (w *discardWriter) reset() {
	w.code = 0
	clear(w.h)
}

// measureCapacity ramps one fleet on a fresh in-process server and
// measures steady-state frame-read capacity.
func measureCapacity(ctx context.Context, cfg capacityConfig) (capacityResult, error) {
	res := capacityResult{
		sessions: cfg.sessions, workers: cfg.workers,
		read: cfg.read, gomaxprocs: runtime.GOMAXPROCS(0),
	}
	srv := server.New(server.Options{
		MaxSessions: cfg.sessions + 1,
		Seed:        cfg.seed,
		Registry:    obs.NewRegistry(),
	})
	defer srv.Close()

	// Ramp: -workers creators share the fleet; with a ramp window each
	// creation waits for its proportional slot so the fleet grows linearly
	// to full size over the window.
	ids := make([]string, cfg.sessions)
	errs := make([]error, cfg.workers)
	rampStart := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < cfg.sessions; i += cfg.workers {
				if cfg.ramp > 0 {
					due := rampStart.Add(cfg.ramp * time.Duration(i) / time.Duration(cfg.sessions))
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
				}
				id, err := createSession(srv, cfg.seed+uint64(i))
				if err != nil {
					errs[w] = fmt.Errorf("create session %d: %w", i, err)
					return
				}
				ids[i] = id
			}
		}(w)
	}
	wg.Wait()
	res.rampElapsed = time.Since(rampStart)
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}

	// Steady state: every worker loops frame reads over its slice of the
	// fleet until the window closes, recording per-request wall time.
	type workerStats struct {
		lat []int64
		err error
	}
	stats := make([]workerStats, cfg.workers)
	rawQuery := fmt.Sprintf("n=%d", cfg.read)
	deadline := time.Now().Add(cfg.duration)
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := &stats[w]
			st.lat = make([]int64, 0, 1<<16)
			rec := &discardWriter{}
			header := http.Header{"Accept": []string{server.ContentTypeFrames}}
			for i := w; ; i += cfg.workers {
				if i >= cfg.sessions {
					i %= cfg.sessions
				}
				req := &http.Request{
					Method:     "GET",
					URL:        &url.URL{Path: "/v1/streams/" + ids[i] + "/frames", RawQuery: rawQuery},
					Proto:      "HTTP/1.1",
					ProtoMajor: 1,
					ProtoMinor: 1,
					Header:     header,
					Host:       "loadgen",
					RemoteAddr: "127.0.0.1:1",
				}
				rec.reset()
				t0 := time.Now()
				srv.ServeHTTP(rec, req.WithContext(ctx))
				t1 := time.Now()
				if rec.code != http.StatusOK {
					st.err = fmt.Errorf("frames %s: HTTP %d", ids[i], rec.code)
					return
				}
				st.lat = append(st.lat, t1.Sub(t0).Nanoseconds())
				if t1.After(deadline) {
					return
				}
			}
		}(w)
	}
	wg.Wait()

	var all []int64
	var sum int64
	for w := range stats {
		if stats[w].err != nil {
			return res, stats[w].err
		}
		all = append(all, stats[w].lat...)
		for _, v := range stats[w].lat {
			sum += v
		}
	}
	if len(all) == 0 {
		return res, fmt.Errorf("measurement window produced no requests")
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	res.requests = len(all)
	res.meanNs = float64(sum) / float64(len(all))
	res.p50 = time.Duration(all[len(all)/2])
	res.p99 = time.Duration(all[len(all)*99/100])
	res.framesPerSec = float64(len(all)*cfg.read) / cfg.duration.Seconds()
	res.serverP99, res.serverP99OK = scrapeServerP99(srv)
	return res, nil
}

type stepConfig struct {
	sessions, stepN int
	duration        time.Duration
	seed            uint64
}

// measureStep ramps a block-engine paper fleet on a fresh in-process server
// and measures steady-state batched stepping: a single driver goroutine —
// the simulation-driver shape — advances the whole fleet by stepN frames
// per POST /v1/streams/step request, while the endpoint's sticky-chunk
// fan-out supplies the parallelism. Per-request latency and aggregate
// frames/sec/core land in the same capacityResult/benchreport shape as the
// frame-read rungs.
func measureStep(ctx context.Context, cfg stepConfig) (capacityResult, error) {
	res := capacityResult{
		sessions: cfg.sessions, workers: 1,
		read: cfg.stepN, gomaxprocs: runtime.GOMAXPROCS(0),
	}
	srv := server.New(server.Options{
		MaxSessions: cfg.sessions + 1,
		Seed:        cfg.seed,
		Registry:    obs.NewRegistry(),
	})
	defer srv.Close()

	rampStart := time.Now()
	ids := make([]string, cfg.sessions)
	for i := range ids {
		spec := paperSpecFor(cfg.seed + uint64(i))
		spec.Engine = modelspec.EngineBlock
		id, err := createSessionSpec(srv, spec)
		if err != nil {
			return res, fmt.Errorf("create session %d: %w", i, err)
		}
		ids[i] = id
	}
	res.rampElapsed = time.Since(rampStart)

	body, err := json.Marshal(server.StepRequest{IDs: ids, N: cfg.stepN})
	if err != nil {
		return res, err
	}
	var lat []int64
	rec := &discardWriter{}
	deadline := time.Now().Add(cfg.duration)
	for {
		req := &http.Request{
			Method:     "POST",
			URL:        &url.URL{Path: "/v1/streams/step"},
			Proto:      "HTTP/1.1",
			ProtoMajor: 1,
			ProtoMinor: 1,
			Header:     http.Header{"Content-Type": []string{"application/json"}},
			Body:       io.NopCloser(bytes.NewReader(body)),
			Host:       "loadgen",
			RemoteAddr: "127.0.0.1:1",
		}
		rec.reset()
		t0 := time.Now()
		srv.ServeHTTP(rec, req.WithContext(ctx))
		t1 := time.Now()
		if rec.code != http.StatusOK {
			return res, fmt.Errorf("step round %d: HTTP %d", len(lat), rec.code)
		}
		lat = append(lat, t1.Sub(t0).Nanoseconds())
		if t1.After(deadline) {
			break
		}
	}

	var sum int64
	for _, v := range lat {
		sum += v
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	res.requests = len(lat)
	res.meanNs = float64(sum) / float64(len(lat))
	res.p50 = time.Duration(lat[len(lat)/2])
	res.p99 = time.Duration(lat[len(lat)*99/100])
	res.framesPerSec = float64(len(lat)) * float64(cfg.sessions) * float64(cfg.stepN) /
		(float64(sum) / 1e9)
	return res, nil
}

// createSession opens one TES session through the full HTTP surface and
// returns its id.
func createSession(srv *server.Server, seed uint64) (string, error) {
	return createSessionSpec(srv, tesSpec(seed))
}

// createSessionSpec opens one session of the given spec through the full
// HTTP surface and returns its id.
func createSessionSpec(srv *server.Server, spec modelspec.Spec) (string, error) {
	body, err := json.Marshal(&spec)
	if err != nil {
		return "", err
	}
	req := httptest.NewRequest("POST", "/v1/streams", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusCreated {
		return "", fmt.Errorf("HTTP %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	var info server.SessionInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		return "", err
	}
	return info.ID, nil
}
