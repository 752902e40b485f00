package main

import (
	"math"
	"sort"
)

// metricDef is one named metric of the benchmark. The tables below are the
// single place the metric set lives; BENCHMARK.json must list the same
// names, units and directions (bench_test.go checks it).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// Moves names, for a per-layer metric, the end-to-end metric and
	// workload a change to that layer should move.
	Moves string
}

// endToEnd are the metrics a user of the system sees, measured with tracing
// off. The bounds are wide because they must hold on a shared 2-core host:
// across ten runs of the HTTP workloads, throughput, CPU per op and latency
// spread 7-17% between quartiles and drifted by up to 20% over minutes
// (other tenants), while the compute-bound workloads spread 3-7%. On
// frames-bulk the median op sits at the edge between requests without a
// block refill (48%) and with one (52%), which makes it the least steady
// figure there. An op is one frames request (frames-bulk, frames-churn; a churn
// create/read/delete cycle is one op too), one step round (step-fleet) or one
// importance-sampling estimate of isReps replications (is-estimate).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "op_p90_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25},
	// The resident set's peak while serving, sampled in the timed window
	// after set-up garbage went back to the OS: the lifetime high-water
	// mark is set by the cold plan builds and flips between two values
	// (263 and 322 MB on frames-bulk) with GC timing.
	{Name: "rss_peak_mb", Unit: "MB", Better: "lower", Bound: 0.1},
}

// perLayer are the traced run's metrics, one or more per repository module,
// each measured from outside by timing calls into the module's public
// functions. A layer a workload bypasses reports 0 on that workload.
var perLayer = []metricDef{
	{Name: "server.frames_us", Unit: "us", Better: "lower", Moves: "op_p50_us on frames-churn; under 10% of frames-bulk"},
	{Name: "server.step_us", Unit: "us", Better: "lower", Moves: "op_p50_us on step-fleet"},
	{Name: "server.create_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s on frames-churn (creates take most of its time); setup_s on frames-bulk and step-fleet"},
	{Name: "server.delete_us", Unit: "us", Better: "lower", Moves: "ops_per_s on frames-churn; setup_s on frames-bulk and step-fleet"},
	{Name: "server.non2xx", Unit: "count", Better: "lower", Moves: "the result's failed count on every serving workload"},
	{Name: "admission.rejects", Unit: "count", Better: "lower", Moves: "the result's failed count on every serving workload"},
	{Name: "client.transport_us", Unit: "us", Better: "lower", Moves: "op_p50_us on frames-churn"},
	{Name: "client.decode_ns_per_frame", Unit: "ns", Better: "lower", Moves: "ops_per_s on frames-bulk"},
	{Name: "server.encode_ns_per_frame", Unit: "ns", Better: "lower", Moves: "ops_per_s on frames-bulk"},
	{Name: "modelspec.open_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s on frames-churn"},
	{Name: "streamblock.fill_ns_per_frame", Unit: "ns", Better: "lower", Moves: "ops_per_s on frames-bulk and step-fleet"},
	{Name: "streamblock.refills_per_kframe", Unit: "1/kframe", Better: "lower", Moves: "ops_per_s on frames-bulk and step-fleet"},
	{Name: "daviesharte.path_ns_per_frame", Unit: "ns", Better: "lower", Moves: "ops_per_s on frames-bulk"},
	{Name: "streamblock.stitch_ns_per_frame", Unit: "ns", Better: "lower", Moves: "ops_per_s on frames-bulk"},
	{Name: "rng.norm_ns_per_frame", Unit: "ns", Better: "lower", Moves: "ops_per_s on frames-bulk and is-estimate"},
	{Name: "fft.hermitian_ns_per_frame", Unit: "ns", Better: "lower", Moves: "ops_per_s on frames-bulk"},
	{Name: "transform.lut_ns_per_frame", Unit: "ns", Better: "lower", Moves: "ops_per_s on frames-bulk"},
	{Name: "transform.exact_ns_per_step", Unit: "ns", Better: "lower", Moves: "ops_per_s on is-estimate"},
	{Name: "statmon.observe_ns_per_frame", Unit: "ns", Better: "lower", Moves: "ops_per_s on frames-bulk"},
	{Name: "statmon.observed_frac", Unit: "frac", Better: "higher", Moves: "ops_per_s on frames-bulk"},
	{Name: "tes.fill_ns_per_frame", Unit: "ns", Better: "lower", Moves: "none: negligible on frames-churn, predicted no change"},
	{Name: "trunk.fill_ns_per_frame", Unit: "ns", Better: "lower", Moves: "ops_per_s on step-fleet"},
	{Name: "par.step_speedup", Unit: "x", Better: "higher", Moves: "ops_per_s on step-fleet"},
	{Name: "hosking.plan_ms", Unit: "ms", Better: "lower", Moves: "setup_s on frames-bulk and is-estimate"},
	{Name: "hosking.cache_hit_frac", Unit: "frac", Better: "higher", Moves: "ops_per_s on frames-churn"},
	{Name: "hosking.condmean_ns_per_step", Unit: "ns", Better: "lower", Moves: "ops_per_s on is-estimate"},
	{Name: "core.fit_ms", Unit: "ms", Better: "lower", Moves: "setup_s on is-estimate"},
	{Name: "mpegtrace.generate_ms", Unit: "ms", Better: "lower", Moves: "setup_s on is-estimate"},
	{Name: "impsample.ns_per_rep", Unit: "ns", Better: "lower", Moves: "ops_per_s on is-estimate"},
	{Name: "impsample.hit_frac", Unit: "frac", Better: "higher", Moves: "ops_per_s on is-estimate"},
	{Name: "impsample.other_ns_per_step", Unit: "ns", Better: "lower", Moves: "ops_per_s on is-estimate"},
	{Name: "trace_overhead", Unit: "x", Better: "lower", Moves: "none: traced mean op latency over untraced"},
	{Name: "layer_sum_ratio", Unit: "x", Better: "lower", Moves: "none: layer self times over the traced end-to-end figure"},
}

// unmeasuredLayers are the ROADMAP's per-frame layers that cannot be timed
// from outside the program; their cost stays inside server.frames_us and
// server.step_us self time until the server records its own spans.
var unmeasuredLayers = []string{"server.registry_lookup", "server.session_lock_wait", "server.write_flush"}

func findMetric(defs []metricDef, name string) metricDef {
	for _, d := range defs {
		if d.Name == name {
			return d
		}
	}
	panic("perfbench: unknown metric " + name)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	f := pos - float64(lo)
	return xs[lo]*(1-f) + xs[lo+1]*f
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailSupported reports whether the q-quantile of n samples has at least ten
// samples beyond it, the rule for reporting a tail percentile.
func tailSupported(n int, q float64) bool { return float64(n)*(1-q) >= 10 }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
