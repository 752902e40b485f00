package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vbrsim/client"
	"vbrsim/internal/modelspec"
	"vbrsim/internal/server"
)

// serveHarness is server.New behind a real loopback listener, plus one
// client per benchmark goroutine, each with its own single keep-alive
// connection.
type serveHarness struct {
	srv     *server.Server
	hs      *http.Server
	served  chan error
	h       *benchHandler
	clients []*client.Client
	tps     []*benchTransport
}

// startServe starts the server with production defaults (statmon at 1 in
// 32, no access log) and the session cap sized to the fleet. refillCost is
// one block refill's time, for injectRefill2x.
func startServe(e *env, fleet, nclients int, refillCost time.Duration) (*serveHarness, error) {
	srv := server.New(server.Options{
		// Headroom for the churn sessions in flight beside the fleet. The
		// cost budget is derived from the cap (16 units per slot), which a
		// fleet of block paper sessions and 16-source trunks stays within.
		MaxSessions: fleet + 4*nclients,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	h := &benchHandler{next: srv, inject: e.cfg.Inject, refillCost: refillCost}
	h.tr.Store(e.tr)
	s := &serveHarness{
		srv:    srv,
		hs:     &http.Server{Handler: h, ReadHeaderTimeout: 30 * time.Second},
		served: make(chan error, 1),
		h:      h,
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	for i := 0; i < nclients; i++ {
		tp := &benchTransport{base: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}}
		s.tps = append(s.tps, tp)
		s.clients = append(s.clients, &client.Client{BaseURL: base, HTTP: &http.Client{Transport: tp}})
	}
	return s, nil
}

// close stops the listener and the server and waits for Serve to return.
func (s *serveHarness) close() {
	if s == nil {
		return
	}
	s.hs.Close()
	<-s.served
	for _, tp := range s.tps {
		tp.base.CloseIdleConnections()
	}
	s.srv.Close()
}

// counters reads the server's own counters this benchmark derives ratios
// from.
func (s *serveHarness) counters() map[string]float64 {
	snap := s.srv.Registry().Snapshot()
	out := map[string]float64{}
	for _, name := range []string{
		"vbrsim_streamblock_refills_total",
		"vbrsim_frames_streamed_total",
		"vbrsim_statmon_frames_sampled_total",
	} {
		if v, ok := snap[name].(float64); ok {
			out[name] = v
		}
	}
	return out
}

// setTracer switches tracing on (t != nil) or off for the client and the
// handler wrapper.
func (e *env) setTracer(t *tracer) {
	e.tr = t
	if e.srv != nil {
		e.srv.h.tr.Store(t)
	}
}

// reqMeta travels in a request's context to the transport, which turns it
// into headers the handler wrapper reads.
type reqMeta struct {
	op, span uint64 // traced: the op and the client span of this request
	start    int    // first frame a frames request reads
	block    int    // block size of the session's engine; 0 if not a block session
}

type metaKey struct{}

func withMeta(ctx context.Context, m reqMeta) context.Context {
	return context.WithValue(ctx, metaKey{}, m)
}

// benchTransport forwards to a one-connection transport. When a request
// carries reqMeta it adds the trace and position headers, and while capture
// is set it copies the response body, so the traced run can time frame
// decoding offline on the exact bytes received.
type benchTransport struct {
	base    *http.Transport
	capture *bytes.Buffer
}

func (t *benchTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if m, ok := req.Context().Value(metaKey{}).(reqMeta); ok {
		req = req.Clone(req.Context())
		if m.span != 0 {
			req.Header.Set("X-Bench-Op", strconv.FormatUint(m.op, 10))
			req.Header.Set("X-Bench-Span", strconv.FormatUint(m.span, 10))
		}
		if m.block > 0 {
			req.Header.Set("X-Bench-Start", strconv.Itoa(m.start))
			req.Header.Set("X-Bench-Block", strconv.Itoa(m.block))
		}
	}
	resp, err := t.base.RoundTrip(req)
	if err == nil && t.capture != nil {
		resp.Body = &teeBody{ReadCloser: resp.Body, w: t.capture}
	}
	return resp, err
}

type teeBody struct {
	io.ReadCloser
	w *bytes.Buffer
}

func (b *teeBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.w.Write(p[:n])
	return n, err
}

// benchHandler wraps the server. Traced, it records one span per request
// (named server.<route>) under the client span that sent it and counts
// non-2xx and 429 replies; with an injection it slows the server on
// purpose. Otherwise it is a direct call.
type benchHandler struct {
	next   http.Handler
	tr     atomic.Pointer[tracer]
	inject injection
	// refillCost is one block refill's measured time (injectRefill2x).
	refillCost time.Duration

	non2xx, rejects atomic.Int64
}

func (h *benchHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := h.tr.Load()
	if tr == nil && h.inject == injectNone {
		h.next.ServeHTTP(w, r)
		return
	}
	var s0 int64
	if tr != nil {
		s0 = tr.now()
	}
	t0 := time.Now()
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	if h.inject == injectRefill2x {
		h.slowRefills(r)
	}
	h.next.ServeHTTP(sw, r)
	if h.inject == injectServer2x {
		spin(time.Since(t0))
	}
	if tr == nil {
		return
	}
	if sw.code >= 300 {
		h.non2xx.Add(1)
	}
	if sw.code == http.StatusTooManyRequests {
		h.rejects.Add(1)
	}
	parent, _ := strconv.ParseUint(r.Header.Get("X-Bench-Span"), 10, 64)
	op, _ := strconv.ParseUint(r.Header.Get("X-Bench-Op"), 10, 64)
	if parent == 0 {
		return
	}
	tr.addHandler(span{ID: tr.id(), Parent: parent, Op: op, Name: "server." + route(r), Start: s0, End: tr.now()})
}

// route names a request by the server call it makes.
func route(r *http.Request) string {
	switch {
	case r.Method == http.MethodDelete:
		return "delete"
	case r.Method == http.MethodPost && r.URL.Path == "/v1/streams/step":
		return "step"
	case r.Method == http.MethodPost:
		return "create"
	case len(r.URL.Path) > 7 && r.URL.Path[len(r.URL.Path)-7:] == "/frames":
		return "frames"
	}
	return "other"
}

// refillSink keeps the injected per-refill allocation from being optimised
// away.
var refillSink atomic.Pointer[[]float64]

// slowRefills charges one extra allocation and one refill's time for each
// block refill the request will trigger: a frames read of [start, start+n)
// on a block stream refills once per block whose first frame it reads.
func (h *benchHandler) slowRefills(r *http.Request) {
	block, _ := strconv.Atoi(r.Header.Get("X-Bench-Block"))
	start, err := strconv.Atoi(r.Header.Get("X-Bench-Start"))
	n, _ := strconv.Atoi(r.URL.Query().Get("n"))
	if block <= 0 || err != nil || n <= 0 {
		return
	}
	first := (start + block - 1) / block // first block starting at or after start
	for b := first; b*block < start+n; b++ {
		buf := make([]float64, block)
		refillSink.Store(&buf)
		spin(h.refillCost)
	}
}

// spin busy-waits for d, consuming CPU the way server work does.
func spin(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// paperSpec is the paper model on the block engine: the exact streaming
// synthesis path.
func paperSpec(seed uint64) modelspec.Spec {
	s := modelspec.Paper()
	s.Engine = modelspec.EngineBlock
	s.Seed = seed
	return s
}

// tesSpec is the cheapest session the server admits: a TES process mapped
// through the paper's lognormal marginal, with no Gaussian plan.
func tesSpec(seed uint64) modelspec.Spec {
	return modelspec.Spec{
		Name:     "tes",
		Engine:   modelspec.EngineTES,
		Seed:     seed,
		TES:      &modelspec.TESSpec{Alpha: 0.3},
		Marginal: &modelspec.MarginalSpec{Kind: "lognormal", Mu: 9.6, Sigma: 0.4},
	}
}

// trunkSpec is a superposition of n block paper sources.
func trunkSpec(seed uint64, n int) modelspec.TrunkSpec {
	src := paperSpec(0)
	return modelspec.TrunkSpec{Name: "trunk", Seed: seed, Components: []modelspec.TrunkComponent{{Count: n, Spec: src}}}
}

// seedFor derives the seed of input i from the run seed (SplitMix64), so
// one --seed fixes every spec the program receives.
func seedFor(base uint64, i int) uint64 {
	z := base*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1 // 0 asks the server to pick the seed
	}
	return z
}

// tracedCall runs one client call as a span under the op's root: the client
// span's ID travels to the handler so the server span nests below it.
func tracedCall(e *env, op uint64, name string, m reqMeta, call func(ctx context.Context) error) (uint64, error) {
	tr := e.tr
	if tr == nil {
		if m.block > 0 {
			return 0, call(withMeta(e.ctx, m))
		}
		return 0, call(e.ctx)
	}
	m.op, m.span = op, tr.id()
	s := span{ID: m.span, Parent: op, Op: op, Name: "client." + name, Start: tr.now()}
	err := call(withMeta(e.ctx, m))
	s.End = tr.now()
	tr.add(s)
	return m.span, err
}

// createFleet creates the specs over the harness's clients in parallel,
// each client taking every nclients-th spec. Traced, each create is an op.
func createFleet(e *env, specs []modelspec.Spec, trunks []modelspec.TrunkSpec) ([]string, []string, error) {
	ids := make([]string, len(specs))
	tids := make([]string, len(trunks))
	n := len(e.srv.clients)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := e.srv.clients[c]
			for i := c; i < len(specs) && errs[c] == nil; i += n {
				errs[c] = tracedOp(e, func(op uint64, _ func()) error {
					_, err := tracedCall(e, op, "create", reqMeta{}, func(ctx context.Context) error {
						info, err := cl.CreateStream(ctx, &specs[i])
						ids[i] = info.ID
						return err
					})
					return err
				})
			}
			for i := c; i < len(trunks) && errs[c] == nil; i += n {
				info, err := cl.CreateTrunk(e.ctx, &trunks[i])
				tids[i], errs[c] = info.ID, err
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, nil, fmt.Errorf("creating fleet: %w", err)
	}
	return ids, tids, nil
}

// tracedOp runs fn as one op with a root span when tracing. fn calls done
// when the op's last client call has returned, so the benchmark's own
// bookkeeping after it stays outside the root span.
func tracedOp(e *env, fn func(op uint64, done func()) error) error {
	tr := e.tr
	if tr == nil {
		return fn(0, func() {})
	}
	op := tr.id()
	s := span{ID: op, Op: op, Name: "op", Start: tr.now()}
	err := fn(op, func() { s.End = tr.now() })
	if s.End == 0 {
		s.End = tr.now()
	}
	tr.add(s)
	return err
}

// deleteAll closes the sessions, tracing each delete as an op when e.tr is
// set.
func deleteAll(e *env, ids []string) error {
	e.srv.h.tr.Store(e.tr)
	defer e.srv.h.tr.Store(nil)
	cl := e.srv.clients[0]
	var errs []error
	for _, id := range ids {
		if id == "" {
			continue
		}
		err := tracedOp(e, func(op uint64, _ func()) error {
			_, err := tracedCall(e, op, "delete", reqMeta{}, func(ctx context.Context) error {
				return cl.CloseStream(ctx, id)
			})
			return err
		})
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}
