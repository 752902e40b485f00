package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vbrsim/internal/benchreport"
	"vbrsim/internal/server"
)

// TestLoadgen32Streams is the concurrency smoke test: 32 streams pulled in
// parallel from one in-process daemon, each verified bit-identical against
// offline generation. Under -race this exercises the session registry, the
// per-session locking, the shared plan cache, and the metrics counters.
func TestLoadgen32Streams(t *testing.T) {
	s := server.New(server.Options{MaxSessions: 64})
	ts := httptest.NewServer(s)
	defer func() {
		ts.Close()
		s.Close()
	}()

	var out, errOut bytes.Buffer
	err := run(context.Background(), []string{
		"-addr", ts.URL, "-streams", "32", "-frames", "400", "-seed", "5000",
	}, &out, &errOut)
	if err != nil {
		t.Fatalf("loadgen: %v\nstderr: %s", err, errOut.String())
	}
	if !strings.Contains(out.String(), "32/32 streams ok") {
		t.Fatalf("unexpected report: %s", out.String())
	}
}

// TestLoadgenStepAndTrunk drives the batched-stepping path and the trunk
// smoke mode against one in-process daemon: the fleet advances through
// POST /v1/streams/step before reading (verification then runs at the
// stepped offset), and a 4-source trunk session is created, stepped, read,
// and seek-replayed bit-identically to the offline trunk engine.
func TestLoadgenStepAndTrunk(t *testing.T) {
	s := server.New(server.Options{MaxSessions: 64})
	ts := httptest.NewServer(s)
	defer func() {
		ts.Close()
		s.Close()
	}()

	var out, errOut bytes.Buffer
	err := run(context.Background(), []string{
		"-addr", ts.URL, "-streams", "8", "-frames", "300", "-step", "200",
		"-seed", "7000", "-trunk", "4",
	}, &out, &errOut)
	if err != nil {
		t.Fatalf("loadgen: %v\nstderr: %s", err, errOut.String())
	}
	if !strings.Contains(out.String(), "8/8 streams ok") {
		t.Fatalf("unexpected report: %s", out.String())
	}
	if !strings.Contains(out.String(), "trunk smoke ok: 4 sources") {
		t.Fatalf("missing trunk smoke report: %s", out.String())
	}
}

func TestLoadgenMissingAddr(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run(context.Background(), nil, &out, &errOut); err == nil {
		t.Fatal("run without -addr or -selfserve succeeded")
	}
}

// TestMeasureCapacitySmall runs the capacity harness at toy scale: the
// measurement must produce requests, coherent percentiles, and a
// benchreport entry carrying the capacity extras the benchdiff gate and
// BENCH_6.json readers rely on.
func TestMeasureCapacitySmall(t *testing.T) {
	res, err := measureCapacity(context.Background(), capacityConfig{
		sessions: 8, workers: 4, read: 2,
		duration: 100 * time.Millisecond,
		seed:     42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.requests <= 0 || res.framesPerSec <= 0 {
		t.Fatalf("empty measurement: %+v", res)
	}
	if res.p99 < res.p50 || res.p50 <= 0 {
		t.Fatalf("percentiles inverted: p50=%v p99=%v", res.p50, res.p99)
	}
	e := res.entry()
	if e.NsPerOp <= 0 || e.Extra["sessions"] != 8 {
		t.Fatalf("malformed entry: %+v", e)
	}
	if e.Extra["frames_per_sec_core"] <= 0 || e.Extra["p99_us"] <= 0 {
		t.Fatalf("entry missing capacity extras: %+v", e)
	}
}

// TestServerP99AgreesWithClient cross-checks the two p99 measurements the
// capacity harness reports: the client-side one (wall time around each
// ServeHTTP dispatch) and the server-side one (interpolated from the
// vbrsim_http_request_seconds{endpoint="frames"} histogram scraped off
// /metrics). The server estimate is quantized to its bucket grid, so exact
// equality is impossible; instead both values must land in the same or an
// adjacent histogram bucket — any wiring error (wrong endpoint label,
// seconds-vs-millis confusion, scraping the wrong family) moves the server
// value by whole buckets or kills it entirely.
func TestServerP99AgreesWithClient(t *testing.T) {
	res, err := measureCapacity(context.Background(), capacityConfig{
		sessions: 8, workers: 4, read: 2,
		duration: 200 * time.Millisecond,
		seed:     43,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.serverP99OK || res.serverP99 <= 0 {
		t.Fatalf("server p99 not scraped: %+v", res)
	}
	e := res.entry()
	if e.Extra["server_p99_ms"] <= 0 {
		t.Fatalf("entry missing server_p99_ms: %+v", e)
	}

	// The request-histogram bucket bounds from internal/server metrics.go.
	bounds := []time.Duration{
		500 * time.Microsecond, 2 * time.Millisecond, 10 * time.Millisecond,
		50 * time.Millisecond, 200 * time.Millisecond, time.Second, 5 * time.Second,
	}
	bucketOf := func(d time.Duration) int {
		for i, ub := range bounds {
			if d <= ub {
				return i
			}
		}
		return len(bounds)
	}
	cb, sb := bucketOf(res.p99), bucketOf(res.serverP99)
	if diff := cb - sb; diff < -1 || diff > 1 {
		t.Fatalf("client p99 %v (bucket %d) and server p99 %v (bucket %d) disagree beyond one histogram bucket",
			res.p99, cb, res.serverP99, sb)
	}
}

// TestMeasureStepSmall runs the batched-stepping rung at toy scale: the
// driver must complete rounds against a block-engine fleet and produce a
// coherent benchreport entry with the frames/sec/core extras.
func TestMeasureStepSmall(t *testing.T) {
	res, err := measureStep(context.Background(), stepConfig{
		sessions: 4, stepN: 64,
		duration: 50 * time.Millisecond,
		seed:     42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.requests <= 0 || res.framesPerSec <= 0 {
		t.Fatalf("empty measurement: %+v", res)
	}
	if res.p99 < res.p50 || res.p50 <= 0 {
		t.Fatalf("percentiles inverted: p50=%v p99=%v", res.p50, res.p99)
	}
	e := res.entry()
	if e.Extra["sessions"] != 4 || e.Extra["frames_per_request"] != 64 {
		t.Fatalf("malformed entry: %+v", e)
	}
	if e.Extra["frames_per_sec_core"] <= 0 {
		t.Fatalf("entry missing frames/sec/core: %+v", e)
	}
}

// TestReportMergeOnWrite checks the -o merge semantics: entries already in
// the target report under other names survive a profile refresh, while
// same-name entries are replaced by the fresh measurement.
func TestReportMergeOnWrite(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/report.json"
	old := benchreport.Report{
		Benchmarks: map[string]benchreport.Entry{
			"Other/ladder-entry":          {NsPerOp: 123},
			"StepFleet/sessions256-n1024": {NsPerOp: 999},
		},
	}
	if err := old.WriteFile(path); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	err := runCapacity(context.Background(), capacityFlags{
		sessions: 4, workers: 2, read: 2,
		duration: 50 * time.Millisecond, seed: 7, procs: 1,
		out: path,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got, err := benchreport.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got.Benchmarks["Other/ladder-entry"]; !ok {
		t.Fatalf("merge dropped unrelated entry: %v", got.Benchmarks)
	}
	if _, ok := got.Benchmarks["ServeFrames/sessions4"]; !ok {
		t.Fatalf("fresh entry missing: %v", got.Benchmarks)
	}
}

// TestCapacityCompareNeedsSharedRung: -compare against a report that has
// none of the measured rungs (a renamed rung, a stale baseline) must fail,
// not report "no regression" after comparing nothing.
func TestCapacityCompareNeedsSharedRung(t *testing.T) {
	path := t.TempDir() + "/baseline.json"
	base := benchreport.Report{Benchmarks: map[string]benchreport.Entry{
		"ServeFrames/sessions4-shards2": {NsPerOp: 1e6},
	}}
	if err := base.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := runCapacity(context.Background(), capacityFlags{
		sessions: 4, workers: 2, read: 2,
		duration: 50 * time.Millisecond, seed: 7, procs: 1,
		compare: path, threshold: 0.75,
	}, &out)
	if err == nil || !strings.Contains(err.Error(), "baseline") {
		t.Fatalf("compare with no shared rung: err = %v\n%s", err, out.String())
	}
}

func TestRunCapacityRejectsUnknownProfile(t *testing.T) {
	var out bytes.Buffer
	err := runCapacity(context.Background(), capacityFlags{profile: "nope"}, &out)
	if err == nil || !strings.Contains(err.Error(), "profile") {
		t.Fatalf("unknown profile error = %v", err)
	}
}
