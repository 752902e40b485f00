package server

import (
	"net/http"
	"strconv"
	"time"

	"vbrsim/internal/obs"
)

// route registers pattern on the mux wrapped in the RED middleware under a
// stable endpoint label. The label, not the pattern, keys every request
// metric: patterns carry wildcards ({id}) and method prefixes that make
// poor label values, and a stable short name keeps dashboards readable.
func (s *Server) route(pattern, endpoint string, h http.Handler) {
	// Pre-touch the per-endpoint series so the exposition shows the full
	// route table (zero-valued endpoints included) from the first scrape.
	s.metrics.httpErrors.With(endpoint).Add(0)
	s.metrics.httpSeconds.With(endpoint)
	s.mux.Handle(pattern, s.instrument(endpoint, h))
}

// instrument wraps h in the request-path telemetry: RED metrics (request
// and error counters, latency histogram, in-flight gauge), a per-request
// id threaded through the context, the access tracer attached so pipeline
// spans opened under this request (plan acquisition, IS warmup) stream
// into the access log, and one structured access-log line per request.
func (s *Server) instrument(endpoint string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := "r" + strconv.FormatUint(s.reqSeq.Add(1), 10)
		ctx := obs.ContextWithRequestID(r.Context(), id)
		if s.access != nil {
			ctx = obs.ContextWithTracer(ctx, s.access)
		}
		r = r.WithContext(ctx)

		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		s.metrics.httpInFlight.Add(1)
		// Deferred: a handler panic recovered by net/http must not leak it.
		defer s.metrics.httpInFlight.Add(-1)
		begin := time.Now()
		next.ServeHTTP(sw, r)
		seconds := time.Since(begin).Seconds()

		s.metrics.httpRequests.With(endpoint, strconv.Itoa(sw.code)).Inc()
		if sw.code >= 500 {
			s.metrics.httpErrors.With(endpoint).Inc()
		}
		s.metrics.httpSeconds.With(endpoint).Observe(seconds)
		s.access.Event("access", map[string]any{
			"req_id":   id,
			"method":   r.Method,
			"path":     r.URL.Path,
			"endpoint": endpoint,
			"status":   sw.code,
			"seconds":  seconds,
			"bytes":    sw.bytes,
		})
	})
}

// statusWriter records the response status and body size for the RED
// counters and the access log. It forwards Flush so the streaming frames
// path keeps its per-chunk backpressure behaviour through the middleware.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
