package server

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"vbrsim/internal/obs"
)

// metricRow matches one row of DESIGN.md §9's metric table: the metric
// name in backticks, then its type.
var metricRow = regexp.MustCompile("^\\| `(vbrsim_[a-z0-9_]+)` \\| ([a-z]+) \\|")

// metricTable parses DESIGN.md §9's metric table, the one list of
// served metric names, into name → type. ci.sh's scrape gate reads the same
// rows against a live daemon.
func metricTable(t *testing.T) map[string]string {
	t.Helper()
	design, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]string)
	for _, line := range strings.Split(string(design), "\n") {
		if m := metricRow.FindStringSubmatch(line); m != nil {
			names[m[1]] = m[2]
		}
	}
	if len(names) < 47 {
		t.Fatalf("parsed %d metric rows from DESIGN.md, want at least 47", len(names))
	}
	return names
}

// TestMetricsExpositionComplete scrapes a fresh server's /metrics through
// the obs parser and asserts the exposition is lint-clean and carries
// every documented metric with the documented type.
func TestMetricsExpositionComplete(t *testing.T) {
	s := New(Options{})
	defer s.Close()

	// Exercise the labeled families so they carry samples, not just
	// HELP/TYPE headers.
	s.metrics.jobDone("fit", 0.5, false)
	s.metrics.jobDone("qsim-is", 1.5, true)
	s.metrics.jobsRejected.With("qsim-mc").Inc()
	s.metrics.streamFrames.Observe(100)
	s.metrics.admissionRejects.With(rejectPressure).Inc()
	s.metrics.evictions.Inc()
	s.metrics.observeEstimator(obs.Convergence{
		Completed: 10, Total: 100, P: 1e-5, StdErr: 1e-6,
		NormVar: 12, VarianceRatio: 8000, RepsPerSec: 500,
	})
	// One evictor sweep and one instrumented request, so the sweep
	// histogram and the RED request counter carry samples.
	s.evictIdleOnce()
	s.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/healthz", nil))

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}

	fams, err := obs.ParseExposition(rec.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	if probs := obs.Lint(fams); len(probs) > 0 {
		t.Fatalf("exposition lint problems: %v", probs)
	}
	for name, typ := range metricTable(t) {
		f, ok := fams[name]
		if !ok {
			t.Errorf("documented metric %s missing from /metrics", name)
			continue
		}
		if f.Type != typ {
			t.Errorf("metric %s has type %s, documented as %s", name, f.Type, typ)
		}
	}

	// Spot-check the satellite fixes surfaced in the exposition: failed
	// jobs carry durations, rejections are per kind.
	wantSamples := map[string]bool{
		`vbrsim_job_duration_seconds_sum{kind="qsim-is",status="failed"}`: false,
		`vbrsim_job_duration_seconds_sum{kind="fit",status="ok"}`:         false,
		`vbrsim_jobs_rejected_total{kind="qsim-mc"}`:                      false,
		`vbrsim_server_admission_rejects_total{reason="pressure"}`:        false,
		`vbrsim_server_sweep_seconds_count`:                               false,
		`vbrsim_http_requests_total{endpoint="healthz",code="200"}`:       false,
	}
	for _, f := range fams {
		for _, smp := range f.Samples {
			key := smp.Name + smp.Labels
			if _, ok := wantSamples[key]; ok {
				wantSamples[key] = true
				if smp.Value <= 0 {
					t.Errorf("sample %s = %v, want > 0", key, smp.Value)
				}
			}
		}
	}
	for key, seen := range wantSamples {
		if !seen {
			t.Errorf("expected sample %s not served", key)
		}
	}
}

// TestFailedJobDurationRecorded pins the satellite fix at the metrics API
// level: a failed job contributes wall time under status="failed" and does
// not pollute the ok series.
func TestFailedJobDurationRecorded(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	s.metrics.jobDone("fit", 2.0, true)
	s.metrics.jobDone("fit", 1.0, false)

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	fams, err := obs.ParseExposition(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, smp := range fams["vbrsim_job_duration_seconds"].Samples {
		got[smp.Name+smp.Labels] = smp.Value
	}
	if got[`vbrsim_job_duration_seconds_sum{kind="fit",status="failed"}`] != 2.0 {
		t.Errorf("failed duration sum = %v, want 2", got[`vbrsim_job_duration_seconds_sum{kind="fit",status="failed"}`])
	}
	if got[`vbrsim_job_duration_seconds_count{kind="fit",status="failed"}`] != 1 {
		t.Errorf("failed duration count = %v, want 1", got[`vbrsim_job_duration_seconds_count{kind="fit",status="failed"}`])
	}
	if got[`vbrsim_job_duration_seconds_sum{kind="fit",status="ok"}`] != 1.0 {
		t.Errorf("ok duration sum = %v, want 1", got[`vbrsim_job_duration_seconds_sum{kind="fit",status="ok"}`])
	}
	if fams["vbrsim_jobs_failed_total"].Samples[0].Value != 1 {
		t.Errorf("jobs failed = %+v", fams["vbrsim_jobs_failed_total"].Samples)
	}
}
