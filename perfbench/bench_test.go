package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesTables pins BENCHMARK.json to the metric tables
// and workload list the program reports.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	names := workloadNames()
	if len(b.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(b.Workloads), len(names))
	}
	for i, w := range b.Workloads {
		if w.Name != names[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, names[i])
		}
	}
	compare := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, m, d)
			}
			if bounded && (m.Bound == nil || *m.Bound != d.Bound) {
				t.Errorf("%s %s: BENCHMARK.json bound differs from the program's %v", kind, m.Name, d.Bound)
			}
			if !bounded && m.Bound != nil {
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, m.Name)
			}
		}
	}
	compare("end_to_end", b.EndToEnd, endToEnd, true)
	compare("per_layer", b.PerLayer, perLayer, false)
	for _, d := range endToEnd {
		if d.Name != "setup_s" && d.Bound > findMetric(endToEnd, "setup_s").Bound {
			t.Errorf("%s bound %v exceeds setup_s's, which must be the largest", d.Name, d.Bound)
		}
	}
}

// TestSelfTimes checks the span arithmetic on a hand-built op: a replayed
// child is charged to its parent, a fanned-out child at its share, and the
// self times of one op sum to its root.
func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	tr.add(span{ID: 1, Op: 1, Name: "op", Start: 0, End: 1000})
	tr.add(span{ID: 2, Parent: 1, Op: 1, Name: "client.step", Start: 0, End: 1000})
	tr.add(span{ID: 3, Parent: 2, Op: 1, Name: "server.step", Start: 100, End: 900})
	tr.add(span{ID: 4, Parent: 3, Op: 1, Name: "streamblock.fill", Start: 5000, End: 5600, Replayed: true, Share: 0.5})
	tr.add(span{ID: 5, Parent: 3, Op: 1, Name: "streamblock.fill", Start: 6000, End: 6400, Replayed: true, Share: 0.5})
	tr.add(span{ID: 6, Op: 6, Name: "op", Start: 0, End: 10}) // another op, not selected
	lt := tr.totals(map[uint64]bool{1: true})
	want := map[string]float64{"op": 0, "client.step": 200, "server.step": 300, "streamblock.fill": 500}
	for name, v := range want {
		if lt.self[name] != v {
			t.Errorf("self(%s) = %v, want %v", name, lt.self[name], v)
		}
	}
	if lt.roots != 1000 || lt.nroot != 1 || lt.sumRatio() != 1 {
		t.Errorf("roots %v (n=%d), sum ratio %v; want 1000, 1, 1", lt.roots, lt.nroot, lt.sumRatio())
	}

	// A replayed child longer than its parent's interval shows as excess.
	tr.add(span{ID: 7, Parent: 3, Op: 1, Name: "statmon.observe", Start: 7000, End: 7400, Replayed: true})
	lt = tr.totals(map[uint64]bool{1: true})
	if lt.over["server.step"] != 100 || lt.sumRatio() != 1.1 {
		t.Errorf("over %v, sum ratio %v; want 100 under server.step, 1.1", lt.over, lt.sumRatio())
	}
}

// TestInjectedRegressions proves the bounds catch a known regression where
// it should show and nowhere it should not: a handler that doubles server
// time must worsen op_p50_us on frames-churn beyond its bound, a refill
// that costs twice as much plus an allocation must worsen ops_per_s on
// frames-bulk beyond its bound, and neither may move is-estimate, which
// bypasses the server.
func TestInjectedRegressions(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark for a few minutes")
	}
	const pairs = 3
	run := func(workload string, inject injection) *result {
		t.Helper()
		res, err := execute(config{Workload: workload, Seed: 7, Seconds: 3, Inject: inject})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Fatalf("%s (injection %d) failed its checks: %v", workload, inject, res.Problems)
		}
		return res
	}
	// worse is how much the injected runs' median of a metric is worse than
	// the clean runs' median, as a share of the clean median. Clean and
	// injected runs alternate, so a slow spell on the host hits both.
	worse := func(workload, name string, inject injection) float64 {
		t.Helper()
		var base, shim []float64
		for i := 0; i < pairs; i++ {
			base = append(base, run(workload, injectNone).Metrics[name])
			shim = append(shim, run(workload, inject).Metrics[name])
		}
		b, s := median(base), median(shim)
		t.Logf("%s %s: clean %v, injected %v", workload, name, base, shim)
		if findMetric(endToEnd, name).Better == "higher" {
			return (b - s) / b
		}
		return (s - b) / b
	}

	if w, bound := worse("frames-churn", "op_p50_us", injectServer2x), findMetric(endToEnd, "op_p50_us").Bound; w <= bound {
		t.Errorf("doubled server time worsened frames-churn op_p50_us by %.3f, not beyond the bound %.2f", w, bound)
	}
	if w, bound := worse("frames-bulk", "ops_per_s", injectRefill2x), findMetric(endToEnd, "ops_per_s").Bound; w <= bound {
		t.Errorf("doubled refills worsened frames-bulk ops_per_s by %.3f, not beyond the bound %.2f", w, bound)
	}

	for _, inject := range []injection{injectServer2x, injectRefill2x} {
		for _, name := range []string{"ops_per_s", "op_p50_us", "op_p90_us"} {
			if w, bound := worse("is-estimate", name, inject), findMetric(endToEnd, name).Bound; w > bound {
				t.Errorf("injection %d flagged is-estimate %s (worse by %.3f, bound %.2f)", inject, name, w, bound)
			}
		}
	}
}
