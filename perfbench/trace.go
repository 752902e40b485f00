package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Spans of one op share Op;
// Parent is the ID of the span that caused this one (0 for an op's root).
// Replayed spans were timed offline, after the traced window, by calling
// the layer's public functions on the same spec, seed and position: their
// duration is charged to the parent, not contained in its interval. Share
// is the part of the duration the parent waited for (1/workers for work the
// server fans out; 0 means 1).
type span struct {
	ID       uint64  `json:"id"`
	Parent   uint64  `json:"parent,omitempty"`
	Op       uint64  `json:"op"`
	Name     string  `json:"name"`
	Start    int64   `json:"start_ns"`
	End      int64   `json:"end_ns"`
	Replayed bool    `json:"replayed,omitempty"`
	Share    float64 `json:"share,omitempty"`
}

func (s *span) dur() float64 { return float64(s.End - s.Start) }

func (s *span) share() float64 {
	if s.Share == 0 {
		return 1
	}
	return s.Share
}

// tracer keeps a traced run's spans in memory until the run ends.
type tracer struct {
	base   time.Time
	nextID atomic.Uint64

	mu      sync.Mutex
	spans   []span
	handler map[uint64]uint64 // client span ID -> handler span ID

	first, last int // span index range recorded inside the traced window
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), handler: map[uint64]uint64{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) id() uint64 { return t.nextID.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// addHandler records a server-side span and links it to the client span
// that sent the request, so replayed layers can hang below it.
func (t *tracer) addHandler(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.handler[s.Parent] = s.ID
	t.mu.Unlock()
}

func (t *tracer) handlerOf(clientSpan uint64) (uint64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := t.handler[clientSpan]
	return id, ok
}

func (t *tracer) windowStart() {
	t.mu.Lock()
	t.first = len(t.spans)
	t.mu.Unlock()
}

func (t *tracer) windowEnd() {
	t.mu.Lock()
	t.last = len(t.spans)
	t.mu.Unlock()
}

// layerTotals is the per-name aggregate of a span tree.
type layerTotals struct {
	self  map[string]float64   // Σ self time × effective share, ns
	selfs map[string][]float64 // each span's self time × effective share, ns
	dur   map[string]float64   // Σ duration, ns
	count map[string]int
	// over is Σ of the parts of self times that came out negative, by span
	// name: time the replayed children claim beyond their parent's measured
	// interval.
	over map[string]float64
	// roots is Σ root span duration, ns: the traced end-to-end figure.
	roots float64
	nroot int
}

// totals computes self times for the spans in [from, to) plus the spans
// added after the window (replays), restricted to ops rooted in the window.
// A span's self time is its duration minus its children's durations times
// their shares; a root's effective share is 1 and a child's is its parent's
// times its own, so the self times of one op sum to its root's duration.
func (t *tracer) totals(ops map[uint64]bool) layerTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	lt := layerTotals{
		self: map[string]float64{}, selfs: map[string][]float64{}, dur: map[string]float64{},
		count: map[string]int{}, over: map[string]float64{},
	}
	byID := map[uint64]*span{}
	children := map[uint64][]*span{}
	var roots []*span
	for i := range t.spans {
		s := &t.spans[i]
		if !ops[s.Op] {
			continue
		}
		byID[s.ID] = s
		if s.Parent == 0 {
			roots = append(roots, s)
		} else {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var walk func(s *span, eff float64)
	walk = func(s *span, eff float64) {
		self := s.dur()
		for _, c := range children[s.ID] {
			self -= c.dur() * c.share()
		}
		if self < 0 {
			lt.over[s.Name] += -self * eff
			self = 0
		}
		lt.self[s.Name] += self * eff
		lt.selfs[s.Name] = append(lt.selfs[s.Name], self*eff)
		lt.dur[s.Name] += s.dur()
		lt.count[s.Name]++
		for _, c := range children[s.ID] {
			walk(c, eff*c.share())
		}
	}
	for _, r := range roots {
		lt.roots += r.dur()
		lt.nroot++
		walk(r, 1)
	}
	return lt
}

// windowOps returns the ops whose root span was recorded in the traced
// window.
func (t *tracer) windowOps() map[uint64]bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	ops := map[uint64]bool{}
	for _, s := range t.spans[t.first:t.last] {
		if s.Parent == 0 {
			ops[s.Op] = true
		}
	}
	return ops
}

// allOps returns every op with a root span, set-up ops included.
func (t *tracer) allOps() map[uint64]bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	ops := map[uint64]bool{}
	for _, s := range t.spans {
		if s.Parent == 0 {
			ops[s.Op] = true
		}
	}
	return ops
}

// sumRatio is layer_sum_ratio: the layers' self times over the traced
// end-to-end figure. Self times sum to the roots exactly unless replayed
// children exceed their parent's interval; that excess is what the ratio
// shows above 1.
func (lt layerTotals) sumRatio() float64 {
	var s float64
	for _, v := range lt.self {
		s += v
	}
	return s / lt.roots
}

// perFrame returns Σ duration of the named spans per frame, in ns; 0 when
// the layer did not run.
func (lt layerTotals) perFrame(name string, frames int) float64 {
	if frames == 0 {
		return 0
	}
	return lt.dur[name] / float64(frames)
}

// meanSelf returns the named spans' mean self time in ns (0 if none ran).
func (lt layerTotals) meanSelf(name string) float64 {
	if lt.count[name] == 0 {
		return 0
	}
	return lt.self[name] / float64(lt.count[name])
}

func (lt layerTotals) meanDur(name string) float64 {
	if lt.count[name] == 0 {
		return 0
	}
	return lt.dur[name] / float64(lt.count[name])
}

// writeSpans writes every span as one JSON line to the span directory.
func (t *tracer) writeSpans(cfg *config) {
	if cfg.SpanDir == "" {
		return
	}
	if err := os.MkdirAll(cfg.SpanDir, 0o755); err != nil {
		cfg.logf("spans not written: %v", err)
		return
	}
	path := filepath.Join(cfg.SpanDir, fmt.Sprintf("spans-%s.jsonl", cfg.Workload))
	f, err := os.Create(path)
	if err != nil {
		cfg.logf("spans not written: %v", err)
		return
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	n := len(t.spans)
	for i := range t.spans {
		if err = enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		cfg.logf("spans not written: %v", err)
		return
	}
	cfg.logf("wrote %d spans to %s", n, path)
}

// spansNamed returns copies of the spans with the given name, in the order
// they were recorded.
func (t *tracer) spansNamed(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}
