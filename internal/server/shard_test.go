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

func TestRegistryShardCountRoundsToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {16, 16}, {17, 32},
	} {
		if got := newSessionRegistry(tc.n, nil).numShards(); got != tc.want {
			t.Errorf("newSessionRegistry(%d): %d shards, want %d", tc.n, got, tc.want)
		}
	}
}

func TestRegistryAddGetRemove(t *testing.T) {
	var gauges []int
	r := newSessionRegistry(4, func(_, active int) { gauges = append(gauges, active) })
	const n = 50
	for i := 0; i < n; i++ {
		r.add(newFakeSession(fmt.Sprintf("s%d", i)))
	}
	if got := r.count.Load(); got != n {
		t.Fatalf("count = %d, want %d", got, n)
	}
	if got := len(r.list()); got != n {
		t.Fatalf("list has %d sessions, want %d", got, n)
	}
	// Every session lands in the shard its ID hashes to and is retrievable.
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
	if got := r.count.Load(); got != 0 {
		t.Fatalf("count after drain = %d, want 0", got)
	}
	if len(gauges) != 2*n {
		t.Fatalf("onCount fired %d times, want %d (every add and remove)", len(gauges), 2*n)
	}
}

func TestRegistryGetTouchesIdleClock(t *testing.T) {
	r := newSessionRegistry(2, nil)
	ss := newFakeSession("s1")
	r.add(ss)
	ss.lastTouch.Store(1) // ancient
	r.get("s1")
	if got := ss.lastTouch.Load(); got == 1 {
		t.Fatal("get did not refresh lastTouch")
	}
}

func TestEvictIdleSweep(t *testing.T) {
	r := newSessionRegistry(4, nil)
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
	if got := r.count.Load(); got != 2 {
		t.Fatalf("count = %d, want 2", got)
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

// TestShardInvariance runs one fixed request sequence against servers with
// 1, 4, and 16 shards and requires byte-identical responses throughout:
// session IDs come from a global counter and all observable behavior hashes
// off the ID, so shard topology must be invisible on the wire. Frame bodies
// are compared as raw bytes (the binary record protocol), list/step/info
// responses as JSON bytes.
func TestShardInvariance(t *testing.T) {
	baseline := shardScriptResponses(t, 1)
	for _, shards := range []int{4, 16} {
		got := shardScriptResponses(t, shards)
		if len(got) != len(baseline) {
			t.Fatalf("shards=%d produced %d responses, want %d", shards, len(got), len(baseline))
		}
		for i := range baseline {
			if !bytes.Equal(maskCreated(got[i]), maskCreated(baseline[i])) {
				t.Fatalf("shards=%d response %d differs from single-shard baseline:\n got: %.200s\nwant: %.200s",
					shards, i, got[i], baseline[i])
			}
		}
	}
}

// maskCreated blanks the created timestamps — the only wall-clock bytes in
// any response — so the invariance comparison is exact everywhere else.
var createdRE = regexp.MustCompile(`"created":"[^"]*"`)

func maskCreated(body []byte) []byte {
	return createdRE.ReplaceAll(body, []byte(`"created":"T"`))
}

// shardScriptResponses runs the canonical request script against a fresh
// server with the given shard count and collects every response body.
func shardScriptResponses(t *testing.T, shards int) [][]byte {
	t.Helper()
	_, ts := newTestServer(t, Options{Shards: shards, MaxSessions: 32, Seed: 99})
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

// TestShardGaugeTracksTopology checks the per-shard occupancy gauge: the
// exposition shows every shard (zeros included) and the values sum to the
// active session count.
func TestShardGaugeTracksTopology(t *testing.T) {
	_, ts := newTestServer(t, Options{Shards: 4})
	for i := 0; i < 9; i++ {
		createStream(t, ts.URL, tesTestSpec(uint64(300+i)))
	}
	scrape := scrapeMetrics(t, ts.URL)
	sum, lines := 0, 0
	for _, line := range bytes.Split(scrape, []byte("\n")) {
		rest, ok := bytes.CutPrefix(line, []byte("vbrsim_server_shard_sessions{shard="))
		if !ok {
			continue
		}
		var v int
		if _, err := fmt.Sscanf(string(rest[bytes.IndexByte(rest, ' ')+1:]), "%d", &v); err != nil {
			t.Fatalf("bad shard gauge line %q: %v", line, err)
		}
		lines++
		sum += v
	}
	if lines != 4 {
		t.Fatalf("exposition shows %d shard gauge samples, want 4\n%s", lines, scrape)
	}
	if sum != 9 {
		t.Fatalf("shard gauges sum to %d, want 9", sum)
	}
}
