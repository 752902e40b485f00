package benchreport

import (
	"path/filepath"
	"testing"
)

func mkReport(ns map[string]float64) Report {
	rep := Report{Benchmarks: make(map[string]Entry)}
	for name, v := range ns {
		rep.Benchmarks[name] = Entry{NsPerOp: v}
	}
	return rep
}

func TestComparePassesWithinThreshold(t *testing.T) {
	old := mkReport(map[string]float64{"A": 100, "B": 200})
	fresh := mkReport(map[string]float64{"A": 120, "B": 150})
	deltas, err := Compare(old, fresh, 0.25)
	if err != nil {
		t.Fatalf("20%% regression failed a 25%% threshold: %v", err)
	}
	if len(deltas) != 2 {
		t.Fatalf("got %d deltas, want 2", len(deltas))
	}
	// Deltas are sorted by name.
	if deltas[0].Name != "A" || deltas[1].Name != "B" {
		t.Fatalf("deltas out of order: %v", deltas)
	}
	if got := deltas[0].Frac; got < 0.19 || got > 0.21 {
		t.Fatalf("A frac = %v, want ~0.20", got)
	}
}

func TestCompareFailsBeyondThreshold(t *testing.T) {
	old := mkReport(map[string]float64{"A": 100})
	fresh := mkReport(map[string]float64{"A": 140})
	if _, err := Compare(old, fresh, 0.25); err == nil {
		t.Fatal("40% regression passed a 25% threshold")
	}
}

func TestCompareImprovementNeverFails(t *testing.T) {
	old := mkReport(map[string]float64{"A": 100})
	fresh := mkReport(map[string]float64{"A": 10})
	if _, err := Compare(old, fresh, 0.25); err != nil {
		t.Fatalf("a 10x improvement failed the gate: %v", err)
	}
}

func TestCompareNewBenchmarkIsNotARegression(t *testing.T) {
	old := mkReport(map[string]float64{"A": 100})
	fresh := mkReport(map[string]float64{"A": 100, "NEW": 999})
	deltas, err := Compare(old, fresh, 0.25)
	if err != nil {
		t.Fatalf("a benchmark missing from the old report failed the gate: %v", err)
	}
	var found bool
	for _, d := range deltas {
		if d.Name == "NEW" {
			found = true
			if !d.Missing {
				t.Fatal("NEW not marked Missing")
			}
		}
	}
	if !found {
		t.Fatal("NEW missing from deltas")
	}
}

// TestCompareNothingSharedFails: when every freshly measured benchmark is
// missing from the baseline (a renamed rung, a stale report) the gate has
// compared nothing and must fail rather than pass vacuously.
func TestCompareNothingSharedFails(t *testing.T) {
	old := mkReport(map[string]float64{"Old/name": 100})
	fresh := mkReport(map[string]float64{"New/name": 100})
	deltas, err := Compare(old, fresh, 0.25)
	if err == nil {
		t.Fatal("a compare with no shared benchmark passed")
	}
	if len(deltas) != 1 || !deltas[0].Missing {
		t.Fatalf("deltas = %+v, want the one fresh benchmark marked Missing", deltas)
	}
}

func TestReportRoundTrip(t *testing.T) {
	rep := Report{
		GoVersion:  "go1.24.0",
		GOMAXPROCS: 4,
		Date:       "2026-08-07T00:00:00Z",
		Benchmarks: map[string]Entry{
			"X": {NsPerOp: 123.5, AllocsPerOp: 2, BytesPerOp: 64, N: 1000, GOMAXPROCS: 4,
				Extra: map[string]float64{"p99_ms": 1.5}},
		},
	}
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Benchmarks["X"].NsPerOp != 123.5 || got.Benchmarks["X"].Extra["p99_ms"] != 1.5 {
		t.Fatalf("round trip lost data: %+v", got.Benchmarks["X"])
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("reading a missing report did not error")
	}
}
