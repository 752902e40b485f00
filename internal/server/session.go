package server

import (
	"cmp"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vbrsim/internal/modelspec"
	"vbrsim/internal/statmon"
	"vbrsim/internal/trunk"
)

// frameStream is what a session serves: the deterministic frame surface
// shared by modelspec.Stream (single source) and trunk.Trunk (superposition
// of many). Both are bound to one goroutine; the session mutex provides
// that binding on the HTTP side.
type frameStream interface {
	Pos() int
	Order() int
	MaxACFError() float64
	Fill(out []float64)
	SeekCtx(ctx context.Context, pos int) error
	Close()
}

// session is one named generation stream: a frameStream plus the
// bookkeeping the HTTP layer needs. The mutex serializes frame production —
// concurrent reads of the same session see disjoint, consecutive frame
// ranges unless they pin an explicit from= offset.
type session struct {
	id      string
	name    string
	kind    string  // "" for plain streams, "trunk" for superpositions
	sources int     // flattened source count (trunk sessions only)
	cost    float64 // admission cost units reserved for this session
	seed    uint64
	created time.Time

	// lastTouch is the idle clock (unix nanos), refreshed by every
	// registry lookup; the evictor compares it against the idle cutoff.
	lastTouch atomic.Int64

	mu     sync.Mutex
	stream frameStream
	served uint64 // frames written over all requests
	closed bool   // stream closed (deleted or evicted); reject further use

	// mon is the session's statistical self-monitor (nil when statmon is
	// disabled). It has its own lock so metric scrapes and the stats
	// endpoint never wait on ss.mu behind a long frames read; the serve
	// path calls Observe while holding ss.mu, which orders the taps.
	mon *statmon.Monitor
}

// touch refreshes the idle clock.
func (ss *session) touch() { ss.lastTouch.Store(time.Now().UnixNano()) }

// closeLocked closes the stream exactly once. Callers hold ss.mu, so a
// delete racing an eviction cannot double-close, and a request that
// acquires the mutex afterwards sees closed and treats the session as
// gone instead of using a released stream.
func (ss *session) closeLocked() {
	if ss.closed {
		return
	}
	ss.closed = true
	ss.stream.Close()
}

// SessionInfo is the public view of a session. Kind and Sources are set
// only for trunk sessions, so plain-stream responses are unchanged.
type SessionInfo struct {
	ID          string    `json:"id"`
	Name        string    `json:"name"`
	Kind        string    `json:"kind,omitempty"`
	Sources     int       `json:"sources,omitempty"`
	Seed        uint64    `json:"seed"`
	Pos         int       `json:"pos"`
	Served      uint64    `json:"frames_served"`
	Order       int       `json:"ar_order"`
	MaxACFError float64   `json:"max_acf_error"`
	Created     time.Time `json:"created"`
}

func (ss *session) info() SessionInfo {
	info, _ := ss.infoOK()
	return info
}

// infoOK snapshots the session state; ok is false when the session was
// closed (deleted or evicted) after the caller looked it up, in which
// case the snapshot must not be served — the stream contract forbids
// touching a closed stream.
func (ss *session) infoOK() (SessionInfo, bool) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed {
		return SessionInfo{}, false
	}
	return ss.infoLocked(), true
}

func (ss *session) infoLocked() SessionInfo {
	return SessionInfo{
		ID:          ss.id,
		Name:        ss.name,
		Kind:        ss.kind,
		Sources:     ss.sources,
		Seed:        ss.seed,
		Pos:         ss.stream.Pos(),
		Served:      ss.served,
		Order:       ss.stream.Order(),
		MaxACFError: ss.stream.MaxACFError(),
		Created:     ss.created,
	}
}

// ---------------------------------------------------------------------------
// Session registry (on Server)

// addSession assigns the next session ID and registers ss in its shard.
// Admission (session cap, cost budget, drain) already happened in
// reserve; registration cannot fail.
func (s *Server) addSession(ss *session) {
	ss.id = fmt.Sprintf("s%d", s.nextSession.Add(1))
	ss.touch()
	s.reg.add(ss)
	s.metrics.sessionsActive.Add(1)
	s.metrics.sessionsTotal.Inc()
	if ss.kind == sessionKindTrunk {
		s.metrics.trunkSessions.Add(1)
	}
}

func (s *Server) getSession(id string) (*session, bool) {
	ss, ok := s.reg.get(id)
	if ok {
		// Per-shard lookup counter: with the sharded registry, a skewed
		// request mix shows up here long before it shows up as contention.
		s.metrics.shardRequests.With(shardLabel(s.reg.shardFor(id))).Inc()
	}
	return ss, ok
}

func (s *Server) removeSession(id string) bool {
	ss, ok := s.reg.remove(id)
	if !ok {
		return false
	}
	// Release engine-side accounting (the block engine's arena-bytes
	// gauge) and the admission reservation. closeLocked under ss.mu makes
	// a delete racing an eviction sweep single-close; Stream.Close touches
	// no buffers, so a read that held ss.mu first finishes safely and sees
	// closed on its next request.
	ss.mu.Lock()
	ss.closeLocked()
	ss.mu.Unlock()
	s.adm.release(ss.cost)
	s.metrics.sessionsActive.Add(-1)
	if ss.kind == sessionKindTrunk {
		s.metrics.trunkSessions.Add(-1)
	}
	return true
}

// rejectCreate reports an admission rejection: 429 with a Retry-After
// hint (or 503 while draining), the per-reason counter, and the legacy
// streams-rejected counter.
func (s *Server) rejectCreate(w http.ResponseWriter, err error) {
	s.metrics.streamsRejected.Inc()
	code := http.StatusTooManyRequests
	if ae, ok := asAdmitError(err); ok {
		s.metrics.admissionRejects.With(ae.reason).Inc()
		if ae.reason == rejectDrain {
			code = http.StatusServiceUnavailable
		} else if ae.retryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(ae.retryAfter))
		}
	} else if errors.Is(err, errDraining) {
		code = http.StatusServiceUnavailable
	}
	httpError(w, code, err)
}

// deriveSeed assigns a deterministic seed to the n-th (n >= 1) auto-seeded
// session: trunk.SourceSeed's SplitMix64 mix of the server base seed at
// ordinal n-1. The same base seed reproduces the same seed sequence, and the
// seed is echoed in the create response so clients can regenerate offline.
func deriveSeed(base, ordinal uint64) uint64 { return trunk.SourceSeed(base, int(ordinal)-1) }

// ---------------------------------------------------------------------------
// HTTP handlers

func (s *Server) handleStreamCreate(w http.ResponseWriter, r *http.Request) {
	var spec modelspec.Spec
	if !s.decodeCreate(w, r, &spec, &spec.Seed) {
		return
	}
	ss := &session{name: cmp.Or(spec.Name, "stream"), seed: spec.Seed, cost: estimateStreamCost(&spec)}
	s.create(w, r, ss, func(ctx context.Context) (frameStream, error) {
		stream, err := spec.OpenCtx(ctx, s.opt.Tol)
		if err != nil {
			return nil, err
		}
		ss.mon = s.newStreamMonitor(&spec, stream)
		return stream, nil
	})
}

// sessionKindTrunk marks superposition sessions in the registry and the
// public SessionInfo.
const sessionKindTrunk = "trunk"

// handleTrunkCreate opens a superposition session: N independently seeded
// component streams multiplexed into one aggregate, served through the same
// frames/step/delete surface as a plain stream. The trunk seed is derived
// exactly like a stream seed when the spec leaves it 0, and every component
// seed derives from the trunk seed, so the response's seed alone reproduces
// the whole aggregate offline (trunk.Open with the same spec). Trunks are
// the expensive sessions admission exists for: the cost scales with the
// flattened source count, so under pressure a 4096-source superposition is
// shed while plain streams keep landing.
func (s *Server) handleTrunkCreate(w http.ResponseWriter, r *http.Request) {
	var spec modelspec.TrunkSpec
	if !s.decodeCreate(w, r, &spec, &spec.Seed) {
		return
	}
	ss := &session{
		name:    cmp.Or(spec.Name, sessionKindTrunk),
		kind:    sessionKindTrunk,
		sources: spec.NumSources(),
		seed:    spec.Seed,
		cost:    estimateTrunkCost(&spec),
	}
	s.create(w, r, ss, func(ctx context.Context) (frameStream, error) {
		ss.mon = s.newTrunkMonitor()
		return trunk.Open(ctx, &spec, trunk.Options{Tol: s.opt.Tol})
	})
}

// decodeBody strictly decodes a JSON request body into v, rejecting
// unknown fields. On failure it answers 400 and reports false.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opt.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return false
	}
	return true
}

// decodeCreate decodes and validates a create body into spec and assigns a
// derived seed when the spec leaves *seed 0. On failure it answers 400 and
// reports false.
func (s *Server) decodeCreate(w http.ResponseWriter, r *http.Request, spec interface{ Validate() error }, seed *uint64) bool {
	if !s.decodeBody(w, r, spec) {
		return false
	}
	if err := spec.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return false
	}
	if *seed == 0 {
		*seed = deriveSeed(s.opt.Seed, s.seedOrdinal.Add(1))
	}
	return true
}

// create admits and opens a session. Admission happens before the
// expensive open, on a cost estimated from the spec alone, so a doomed
// request never builds a plan or touches an arena. The open is cancellable
// by the client; its per-model state (plan, truncation, block engine, LUT,
// monitor reference) is shared with every open session of the same spec
// content, so a warm open costs only the seed's arena. Any failure from
// there on returns the reservation, so a rejected or failed create never
// leaks engine accounting.
func (s *Server) create(w http.ResponseWriter, r *http.Request, ss *session, open func(context.Context) (frameStream, error)) {
	if err := s.adm.reserve(ss.cost); err != nil {
		s.rejectCreate(w, err)
		return
	}
	stream, err := open(r.Context())
	if err != nil {
		s.adm.release(ss.cost)
		if r.Context().Err() == nil { // otherwise the client is gone
			httpError(w, http.StatusBadRequest, err)
		}
		return
	}
	ss.stream, ss.created = stream, time.Now()
	s.addSession(ss)
	writeJSON(w, http.StatusCreated, ss.info())
}

func (s *Server) handleStreamList(w http.ResponseWriter, _ *http.Request) {
	list := s.reg.list()
	infos := make([]SessionInfo, 0, len(list))
	for _, ss := range list {
		if info, ok := ss.infoOK(); ok {
			infos = append(infos, info)
		}
	}
	slices.SortFunc(infos, func(a, b SessionInfo) int { return compareSessionIDs(a.ID, b.ID) })
	writeJSON(w, http.StatusOK, infos)
}

func (s *Server) handleStreamGet(w http.ResponseWriter, r *http.Request) {
	ss, ok := s.getSession(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, errNoSession)
		return
	}
	info, ok := ss.infoOK()
	if !ok {
		httpError(w, http.StatusNotFound, errNoSession)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleStreamDelete(w http.ResponseWriter, r *http.Request) {
	if !s.removeSession(r.PathValue("id")) {
		httpError(w, http.StatusNotFound, errNoSession)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// streamChunk bounds both the write granularity and the buffered bytes per
// stream: frames are generated and flushed streamChunk at a time, so a slow
// reader blocks the generator (backpressure) instead of growing a buffer,
// and a vanished client is noticed within one chunk.
const streamChunk = 1024

// maxSeekAhead caps how far past the session's current position from= may
// seek in one request. Skipped frames are generated one by one, so the cap
// bounds the worst-case hidden work a request can demand (a few seconds)
// while staying far above any real resume gap.
const maxSeekAhead = 1 << 24

func (s *Server) handleStreamFrames(w http.ResponseWriter, r *http.Request) {
	ss, ok := s.getSession(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, errNoSession)
		return
	}
	q := r.URL.Query()
	n, err := strconv.Atoi(q.Get("n"))
	if err != nil || n <= 0 {
		httpError(w, http.StatusBadRequest, errors.New("need n > 0 frames"))
		return
	}
	from := -1 // -1: continue from the session's current position
	if v := q.Get("from"); v != "" {
		from, err = strconv.Atoi(v)
		if err != nil || from < 0 {
			httpError(w, http.StatusBadRequest, errors.New("from must be a non-negative frame index"))
			return
		}
	}
	enc := frameEncodingOf(r)
	ctx := r.Context()

	// Hold the session for the whole response: concurrent readers of one
	// session are serialized, so each sees a consistent frame range.
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed {
		// Deleted or evicted between the registry lookup and the lock.
		httpError(w, http.StatusNotFound, errNoSession)
		return
	}
	if from >= 0 {
		// Seeking forward generates every skipped frame, so a huge
		// client-supplied from would pin a core while holding ss.mu: bound
		// it relative to the current position, and let a disconnect or
		// shutdown abort the replay loop.
		if ahead := from - ss.stream.Pos(); ahead > maxSeekAhead {
			httpError(w, http.StatusBadRequest,
				fmt.Errorf("from=%d is %d frames ahead of position %d (max %d); stream the range instead", from, ahead, ss.stream.Pos(), maxSeekAhead))
			return
		}
		if ss.stream.SeekCtx(ctx, from) != nil {
			return // client gone mid-replay; the session stays where it got to
		}
	}
	start := ss.stream.Pos()

	w.Header().Set("Content-Type", enc.contentType())
	w.Header().Set("X-Stream-Start", strconv.Itoa(start))
	w.Header().Set("X-Stream-Seed", strconv.FormatUint(ss.seed, 10))
	flusher, _ := w.(http.Flusher)
	s.metrics.streamFrames.Observe(float64(n))

	// The frame buffer and the encode buffer are both recycled: frames are
	// generated into buf and written straight out through the pooled byte
	// buffer, so steady-state streaming allocates nothing per chunk on any
	// encoding.
	buf := make([]float64, 0, min(n, streamChunk))
	outp := frameBufPool.Get().(*[]byte)
	defer frameBufPool.Put(outp)
	out := *outp
	written := 0
	for written < n {
		if ctx.Err() != nil {
			return // client gone; the session position stays where it got to
		}
		c := n - written
		if c > streamChunk {
			c = streamChunk
		}
		emitBegin := time.Now()
		buf = buf[:c]
		ss.stream.Fill(buf)
		// Statistical self-monitoring tap: zero-copy (the monitor reads buf
		// in place, before the encoder reuses it) and position-aware, so the
		// monitor can detect seeks and sampling gaps.
		if ss.mon.Observe(int64(start+written), buf) {
			s.metrics.statmonSampled.Add(float64(c))
		}

		out = out[:0]
		switch enc {
		case encRecords:
			out = AppendFrameRecord(out, buf)
		case encFloat64:
			for _, v := range buf {
				out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
			}
		default:
			for _, v := range buf {
				out = strconv.AppendFloat(out, v, 'g', -1, 64)
				out = append(out, '\n')
			}
		}
		if _, err := w.Write(out); err != nil {
			return
		}
		// Flush only between chunks: that is where backpressure acts. The
		// last chunk leaves with the trailer when the handler returns, so
		// a one-chunk response is a single write with a Content-Length.
		if flusher != nil && written+c < n {
			flusher.Flush()
		}
		s.metrics.frameEmitSeconds.Observe(time.Since(emitBegin).Seconds())
		written += c
		ss.served += uint64(c)
		s.metrics.framesStreamed.Add(float64(c))
	}
	if enc == encRecords {
		// Terminator record: the protocol-level "all frames delivered".
		w.Write(AppendFrameTrailer(out[:0]))
	}
	*outp = out[:0]
}

// frameEncoding selects a frames response body format.
type frameEncoding int

const (
	encNDJSON  frameEncoding = iota // one ASCII float per line
	encFloat64                      // raw float64 little-endian
	encRecords                      // length-prefixed x-vbrsim-frames records
)

func (e frameEncoding) contentType() string {
	switch e {
	case encFloat64:
		return "application/octet-stream"
	case encRecords:
		return ContentTypeFrames
	}
	return "application/x-ndjson"
}

// frameEncodingOf negotiates the frame encoding: the length-prefixed
// record protocol for Accept: application/x-vbrsim-frames (or
// format=frames), raw binary float64 for application/octet-stream (or
// format=binary), NDJSON otherwise.
func frameEncodingOf(r *http.Request) frameEncoding {
	switch r.URL.Query().Get("format") {
	case "frames":
		return encRecords
	case "binary":
		return encFloat64
	case "ndjson":
		return encNDJSON
	}
	accept := r.Header.Get("Accept")
	switch {
	case strings.Contains(accept, ContentTypeFrames):
		return encRecords
	case strings.Contains(accept, "application/octet-stream"):
		return encFloat64
	}
	return encNDJSON
}

// compareSessionIDs orders session IDs (s1, s2, ...) numerically: by
// length, then lexically.
func compareSessionIDs(a, b string) int {
	if c := cmp.Compare(len(a), len(b)); c != 0 {
		return c
	}
	return strings.Compare(a, b)
}
