package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"testing"
	"time"

	"vbrsim/internal/modelspec"
)

// fakeStream is a minimal frameStream for registry-level tests.
type fakeStream struct {
	pos    int
	closed bool
}

func (f *fakeStream) Pos() int             { return f.pos }
func (f *fakeStream) Order() int           { return 0 }
func (f *fakeStream) MaxACFError() float64 { return 0 }
func (f *fakeStream) Fill(out []float64) {
	for i := range out {
		out[i] = float64(f.pos)
		f.pos++
	}
}
func (f *fakeStream) SeekCtx(_ context.Context, pos int) error { f.pos = pos; return nil }
func (f *fakeStream) Close()                                   { f.closed = true }

func newFakeSession(id string) *session {
	ss := &session{id: id, stream: &fakeStream{}}
	ss.touch()
	return ss
}

func TestRegistryAddGetRemove(t *testing.T) {
	r := newSessionRegistry()
	const n = 50
	for i := 0; i < n; i++ {
		r.add(newFakeSession(fmt.Sprintf("s%d", i)))
	}
	if got := len(r.list()); got != n {
		t.Fatalf("list has %d sessions, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("s%d", i)
		ss, ok := r.get(id)
		if !ok || ss.id != id {
			t.Fatalf("get(%s): ok=%v ss=%v", id, ok, ss)
		}
	}
	if _, ok := r.get("nope"); ok {
		t.Fatal("get of an unknown id succeeded")
	}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("s%d", i)
		if _, ok := r.remove(id); !ok {
			t.Fatalf("remove(%s) failed", id)
		}
		if _, ok := r.remove(id); ok {
			t.Fatalf("second remove(%s) succeeded", id)
		}
	}
	if got := len(r.list()); got != 0 {
		t.Fatalf("list after drain has %d sessions, want 0", got)
	}
}

func TestRegistryGetTouchesIdleClock(t *testing.T) {
	r := newSessionRegistry()
	ss := newFakeSession("s1")
	r.add(ss)
	ss.lastTouch.Store(1) // ancient
	r.get("s1")
	if got := ss.lastTouch.Load(); got == 1 {
		t.Fatal("get did not refresh lastTouch")
	}
}

func TestEvictIdleSweep(t *testing.T) {
	r := newSessionRegistry()
	old := time.Now().Add(-time.Hour).UnixNano()
	var idle, fresh, busy *session
	idle, fresh, busy = newFakeSession("idle"), newFakeSession("fresh"), newFakeSession("busy")
	r.add(idle)
	r.add(fresh)
	r.add(busy)
	idle.lastTouch.Store(old)
	busy.lastTouch.Store(old)
	busy.mu.Lock() // an in-flight request holds the session
	defer busy.mu.Unlock()

	var evicted []*session
	n := r.evictIdle(time.Now().Add(-time.Minute), func(ss *session) { evicted = append(evicted, ss) })
	if n != 1 || len(evicted) != 1 || evicted[0] != idle {
		t.Fatalf("evicted %d sessions (%v), want exactly the idle one", n, evicted)
	}
	if !idle.closed || !idle.stream.(*fakeStream).closed {
		t.Fatal("evicted session was not closed")
	}
	if fresh.closed || busy.closed {
		t.Fatal("fresh or busy session was closed")
	}
	if _, ok := r.get("idle"); ok {
		t.Fatal("evicted session still in the registry")
	}
	if _, ok := r.get("busy"); !ok {
		t.Fatal("busy session lost")
	}
	if got := len(r.list()); got != 2 {
		t.Fatalf("list has %d sessions, want 2", got)
	}

	// A session touched between the scan and the lock survives: the
	// re-check under ss.mu sees the fresh clock.
	fresh.lastTouch.Store(old)
	fresh.touch() // simulates get() winning the race just before the sweep
	if n := r.evictIdle(time.Now().Add(-time.Minute), nil); n != 0 {
		t.Fatalf("sweep evicted %d recently touched sessions", n)
	}
}

// TestServerEvictsIdleSessions drives eviction through the full server: an
// untouched session is swept out (404 afterwards, eviction metrics, cost
// returned), while a busy or touched one survives.
func TestServerEvictsIdleSessions(t *testing.T) {
	s, ts := newTestServer(t, Options{IdleTimeout: time.Hour, EvictInterval: time.Hour})

	tes := tesTestSpec(7)
	victim := createStream(t, ts.URL, tes)
	keeper := createStream(t, ts.URL, tes)
	if used := s.adm.usedCost(); used != 2*tes.CostClass() {
		t.Fatalf("used cost = %v, want %v", used, 2*tes.CostClass())
	}

	// Rewind only the victim's idle clock; the keeper stays fresh.
	vss, ok := s.reg.get(victim.ID)
	if !ok {
		t.Fatal("victim not in registry")
	}
	vss.lastTouch.Store(time.Now().Add(-2 * time.Hour).UnixNano())
	if n := s.evictIdleOnce(); n != 1 {
		t.Fatalf("evicted %d sessions, want 1", n)
	}

	resp, err := http.Get(ts.URL + "/v1/streams/" + victim.ID)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted session GET: %d, want 404", resp.StatusCode)
	}
	if _, ok := s.reg.get(keeper.ID); !ok {
		t.Fatal("keeper evicted")
	}
	if used := s.adm.usedCost(); used != tes.CostClass() {
		t.Fatalf("used cost after eviction = %v, want %v", used, tes.CostClass())
	}
	// Deleting the evicted session is a 404, not a double-close.
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/streams/"+victim.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("delete after eviction: %d, want 404", resp.StatusCode)
	}
	scrape := scrapeMetrics(t, ts.URL)
	if !bytes.Contains(scrape, []byte("vbrsim_server_evictions_total 1")) {
		t.Fatal("evictions counter not incremented")
	}
}

// tesTestSpec is the cheapest valid session spec (cost 1 unit).
func tesTestSpec(seed uint64) modelspec.Spec {
	return modelspec.Spec{
		Engine:   modelspec.EngineTES,
		Seed:     seed,
		TES:      &modelspec.TESSpec{Alpha: 0.3},
		Marginal: &modelspec.MarginalSpec{Kind: "lognormal", Mu: 9.6, Sigma: 0.4},
	}
}

func scrapeMetrics(t *testing.T, base string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestRequestScriptDeterminism runs one fixed request sequence against two
// fresh servers and requires byte-identical responses throughout: session
// IDs come from a per-server counter and every served byte follows from
// (spec, seed, position), so nothing else (map order, timing, scheduling)
// may leak onto the wire. Frame bodies are compared as raw bytes (the
// binary record protocol), list/step/info responses as JSON bytes.
func TestRequestScriptDeterminism(t *testing.T) {
	first, second := scriptResponses(t), scriptResponses(t)
	if len(second) != len(first) {
		t.Fatalf("second run produced %d responses, want %d", len(second), len(first))
	}
	for i := range first {
		if !bytes.Equal(maskCreated(second[i]), maskCreated(first[i])) {
			t.Fatalf("response %d differs between runs:\n got: %.200s\nwant: %.200s",
				i, second[i], first[i])
		}
	}
}

// maskCreated blanks the created timestamps — the only wall-clock bytes in
// any response — so the determinism comparison is exact everywhere else.
var createdRE = regexp.MustCompile(`"created":"[^"]*"`)

func maskCreated(body []byte) []byte {
	return createdRE.ReplaceAll(body, []byte(`"created":"T"`))
}

// scriptResponses runs the canonical request script against a fresh server
// and collects every response body.
func scriptResponses(t *testing.T) [][]byte {
	t.Helper()
	_, ts := newTestServer(t, Options{MaxSessions: 32, Seed: 99})
	var out [][]byte

	record := func(resp *http.Response, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode >= 500 {
			t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
		}
		out = append(out, body)
	}

	// Create a mixed fleet: six cheap TES streams, two paper streams, one
	// trunk. Explicit seeds keep the sequence identical across runs.
	var ids []string
	create := func(path string, spec any) {
		t.Helper()
		resp := postJSON(t, ts.URL+path, spec)
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create: %d %s", resp.StatusCode, body)
		}
		var info SessionInfo
		if err := decodeJSONBytes(body, &info); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
		out = append(out, body)
	}
	for i := 0; i < 6; i++ {
		create("/v1/streams", tesTestSpec(100+uint64(i)))
	}
	for i := 0; i < 2; i++ {
		create("/v1/streams", paperSpec(200+uint64(i)))
	}
	paper := modelspec.Paper()
	create("/v1/trunks", &modelspec.TrunkSpec{
		Seed: 7777,
		Components: []modelspec.TrunkComponent{
			{Count: 3, Spec: modelspec.Spec{ACF: paper.ACF, Marginal: paper.Marginal}},
		},
	})

	// Binary frame reads from every session (raw body bytes).
	for _, id := range ids {
		record(http.Get(fmt.Sprintf("%s/v1/streams/%s/frames?n=40&format=frames", ts.URL, id)))
	}
	// One batched step over the whole fleet, frames included.
	record(http.Post(ts.URL+"/v1/streams/step", "application/json",
		bytes.NewReader(mustJSON(t, StepRequest{IDs: ids, N: 16, IncludeFrames: true}))))
	// Seek replay on the trunk, NDJSON read on a stream.
	record(http.Get(fmt.Sprintf("%s/v1/streams/%s/frames?n=24&from=10&format=frames", ts.URL, ids[len(ids)-1])))
	record(http.Get(fmt.Sprintf("%s/v1/streams/%s/frames?n=8", ts.URL, ids[0])))
	// Delete one session mid-script; subsequent state must agree.
	req, err := http.NewRequest("DELETE", ts.URL+"/v1/streams/"+ids[3], nil)
	if err != nil {
		t.Fatal(err)
	}
	record(http.DefaultClient.Do(req))
	// Final state: every session's info and the sorted list.
	for _, id := range ids {
		record(http.Get(ts.URL + "/v1/streams/" + id))
	}
	record(http.Get(ts.URL + "/v1/streams"))
	return out
}

func decodeJSONBytes(body []byte, v any) error {
	return json.Unmarshal(body, v)
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSessionListNumericOrder checks that the session list is in numeric
// ID order, not map or string order: s10 sorts after s9.
func TestSessionListNumericOrder(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	var want []string
	for i := 0; i < 10; i++ {
		want = append(want, createStream(t, ts.URL, tesTestSpec(uint64(300+i))).ID)
	}
	resp, err := http.Get(ts.URL + "/v1/streams")
	if err != nil {
		t.Fatal(err)
	}
	var list []SessionInfo
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, info := range list {
		got = append(got, info.ID)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) || want[8] != "s9" || want[9] != "s10" {
		t.Fatalf("session list order %v, want %v ending s9, s10", got, want)
	}
}

// TestGetSessionZeroAllocs pins the lookup every session request starts
// with: a map read under the registry lock and an idle-clock touch, with no
// metric label rendering or other heap work on the way.
func TestGetSessionZeroAllocs(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	ss := newFakeSession("")
	s.addSession(ss)
	if allocs := testing.AllocsPerRun(1000, func() {
		if got, ok := s.getSession(ss.id); !ok || got != ss {
			t.Fatal("session not found")
		}
	}); allocs != 0 {
		t.Fatalf("getSession: %v allocs/op, want 0", allocs)
	}
}
