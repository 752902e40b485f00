package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"vbrsim/internal/hosking"
)

// config is one benchmark run.
type config struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	SpanDir  string // where a traced run writes its spans; empty: nowhere
	Log      io.Writer
	// Inject adds a known regression; the self-test uses it to prove the
	// bounds catch what they should.
	Inject injection
}

// injection is a deliberately slowed build of the serving path.
type injection int

const (
	injectNone injection = iota
	// injectServer2x spins after every handler call for as long as the call
	// took, doubling server time.
	injectServer2x
	// injectRefill2x adds one allocation and one refill's worth of work for
	// every block refill a frames request causes.
	injectRefill2x
)

func (c *config) logf(format string, args ...any) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, format+"\n", args...)
	}
}

// result is what a run measured and checked.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]float64
	Samples   map[string]int
	Problems  []string
}

func newResult() *result {
	return &result{Correct: true, Metrics: map[string]float64{}, Samples: map[string]int{}}
}

// check records one correctness check: a failed check counts as a failed
// attempt and makes the run incorrect.
func (r *result) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.fail(format, args...)
	}
}

// fail records a failure of something already counted as attempted.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.Failed++
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) set(name string, v float64, samples int) {
	r.Metrics[name] = v
	r.Samples[name] = samples
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// summary renders the result line: the end-to-end metrics, or the per-layer
// ones for a traced run. A metric that was not measured, or is not finite,
// makes the run incorrect rather than printing a made-up value.
func (r *result) summary(traced bool) summary {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	s := summary{Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.Attempted++
			r.fail("metric %s not measured (%v)", d.Name, v)
			v = 0
		}
		s.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if r.Attempted == 0 {
		r.Attempted = 1
		r.fail("nothing attempted")
	}
	s.Correct, s.Attempted, s.Failed = r.Correct, r.Attempted, r.Failed
	return s
}

// workload is one benchmark input. prepare does the benchmark's own
// untimed groundwork; setup builds everything a run needs
// from cold caches; op performs one closed-loop operation and returns its
// latency; verify checks the sampled outputs after the timed windows; layers
// turns a traced window into per-layer metrics.
type workload interface {
	prepare(e *env) error
	setupReps() int
	setup(e *env) error
	teardown(e *env)
	clients() int
	op(e *env, c, seq int) (time.Duration, error)
	verify(e *env, r *result)
	layers(e *env, r *result, a, b window)
}

func workloadNames() []string {
	return []string{"frames-bulk", "frames-churn", "step-fleet", "is-estimate"}
}

func newWorkload(name string) workload {
	switch name {
	case "frames-bulk":
		return &framesWorkload{bulk: true}
	case "frames-churn":
		return &framesWorkload{}
	case "step-fleet":
		return &stepWorkload{}
	case "is-estimate":
		return &isWorkload{}
	}
	return nil
}

// env is the state shared by a run's phases.
type env struct {
	cfg *config
	ctx context.Context
	tr  *tracer // nil outside the traced window
	srv *serveHarness

	// Traced runs only: the server's counter deltas over the traced
	// window, the plan cache's counter deltas over the traced set-up and
	// window, and the cold plan build time.
	counterDelta map[string]float64
	planStats    hosking.CacheStats
	planMs       float64
}

// window is one closed-loop measurement.
type window struct {
	lat      []float64 // op latencies, µs
	ops      int
	failed   int
	wall     time.Duration
	cpu      time.Duration
	steal    float64 // share of the host CPUs' time the hypervisor gave to other guests
	rssPeak  float64 // peak resident set sampled during the window, MB
	problems []string
}

func (w window) meanLatency() float64 { return mean(w.lat) }

// measure runs every client's closed loop until d has passed: each client
// issues its next op only when the previous one completed. seq carries each
// client's op counter across windows.
func measure(wl workload, e *env, d time.Duration, seq []int) window {
	n := wl.clients()
	lats := make([][]float64, n)
	fails := make([]int, n)
	probs := make([][]string, n)
	ends := make([]time.Time, n)
	cpu0 := cpuTime()
	stat0 := readCPUStat()
	stopRSS := make(chan struct{})
	rssPeak := make(chan float64)
	go sampleRSS(stopRSS, rssPeak)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) && e.ctx.Err() == nil {
				lat, err := wl.op(e, c, seq[c])
				seq[c]++
				lats[c] = append(lats[c], float64(lat.Nanoseconds())/1e3)
				if err != nil {
					fails[c]++
					if len(probs[c]) < 5 {
						probs[c] = append(probs[c], err.Error())
					}
				}
			}
			ends[c] = time.Now()
		}(c)
	}
	wg.Wait()
	var w window
	for c := 0; c < n; c++ {
		w.lat = append(w.lat, lats[c]...)
		w.failed += fails[c]
		w.problems = append(w.problems, probs[c]...)
		if el := ends[c].Sub(start); el > w.wall {
			w.wall = el
		}
	}
	w.ops = len(w.lat)
	w.cpu = cpuTime() - cpu0
	w.steal = stealShare(stat0, readCPUStat())
	close(stopRSS)
	w.rssPeak = <-rssPeak
	return w
}

// sampleRSS samples the process's resident set every 20 ms until stop is
// closed, then sends the peak in MB (NaN if it could not be read).
func sampleRSS(stop <-chan struct{}, peak chan<- float64) {
	mb := float64(os.Getpagesize()) / (1 << 20)
	max := math.NaN()
	t := time.NewTicker(20 * time.Millisecond)
	defer t.Stop()
	for {
		if data, err := os.ReadFile("/proc/self/statm"); err == nil {
			if f := strings.Fields(string(data)); len(f) > 1 {
				if pages, err := strconv.ParseFloat(f[1], 64); err == nil && (math.IsNaN(max) || pages*mb > max) {
					max = pages * mb
				}
			}
		}
		select {
		case <-stop:
			peak <- max
			return
		case <-t.C:
		}
	}
}

// execute runs one workload end to end: repeated cold set-ups, a warm-up,
// the timed window (two half windows, untraced then traced, with --trace
// 1), the output checks and the report.
func execute(cfg config) (*result, error) {
	wl := newWorkload(cfg.Workload)
	res := newResult()
	e := &env{cfg: &cfg, ctx: context.Background()}
	printHost(&cfg)
	if err := wl.prepare(e); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.Workload, err)
	}

	// Set-up is repeated from cold caches and reported as the median, so
	// work moved into set-up shows without one slow start deciding it. The
	// last set-up is the one the run uses; in a traced run it is traced.
	reps := wl.setupReps()
	setups := make([]float64, 0, reps)
	var plan0 hosking.CacheStats
	for i := 0; i < reps; i++ {
		hosking.Shared.Purge()
		runtime.GC()
		if cfg.Trace && i == reps-1 {
			e.tr = newTracer()
			plan0 = hosking.Shared.Stats()
		}
		stat0, t0 := readCPUStat(), time.Now()
		if err := wl.setup(e); err != nil {
			wl.teardown(e)
			return nil, fmt.Errorf("%s set-up: %w", cfg.Workload, err)
		}
		// Unstolen set-up time, as for the window's wall-clock figures.
		setups = append(setups, time.Since(t0).Seconds()*(1-stealShare(stat0, readCPUStat())))
		if i < reps-1 {
			wl.teardown(e)
		}
	}
	defer wl.teardown(e)
	// The set-ups' cold plan builds leave hundreds of MB of garbage whose
	// return to the OS depends on GC timing; returning it now makes the
	// window's resident set the serving footprint alone.
	debug.FreeOSMemory()
	setupTrace := e.tr
	e.setTracer(nil)
	res.set("setup_s", median(append([]float64(nil), setups...)), len(setups))
	cfg.logf("setup_s reps: %v", fmtFloats(setups))

	seq := make([]int, wl.clients())
	warm := measure(wl, e, time.Duration(math.Min(1, cfg.Seconds/10)*float64(time.Second)), seq)
	dur := time.Duration(cfg.Seconds * float64(time.Second))
	var a, b window
	if !cfg.Trace {
		a = measure(wl, e, dur, seq)
		reportEndToEnd(&cfg, res, a)
	} else {
		a = measure(wl, e, dur/2, seq)
		var c0 map[string]float64
		if e.srv != nil {
			c0 = e.srv.counters()
		}
		e.setTracer(setupTrace)
		setupTrace.windowStart()
		b = measure(wl, e, dur/2, seq)
		setupTrace.windowEnd()
		e.setTracer(nil)
		e.tr = setupTrace // the replay adds its spans; the handler records no more
		if e.srv != nil {
			e.counterDelta = map[string]float64{}
			for k, v := range e.srv.counters() {
				e.counterDelta[k] = v - c0[k]
			}
		}
		p := hosking.Shared.Stats()
		e.planStats = hosking.CacheStats{Hits: p.Hits - plan0.Hits, Misses: p.Misses - plan0.Misses}
	}
	for _, w := range []window{warm, a, b} {
		res.Attempted += w.ops
		res.Failed += w.failed
		if w.failed > 0 {
			res.Correct = false
			res.Problems = append(res.Problems, w.problems...)
		}
	}
	wl.verify(e, res)
	if cfg.Trace {
		wl.layers(e, res, a, b)
		e.tr.writeSpans(&cfg)
		e.tr = nil
		cfg.logf("not measurable from outside (inside server.* self time): %s", strings.Join(unmeasuredLayers, ", "))
	}

	cfg.logf("seed %d, workload %s, seconds %g, trace %v", cfg.Seed, cfg.Workload, cfg.Seconds, cfg.Trace)
	defs := endToEnd
	if cfg.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		cfg.logf("metric %-32s %14.6g %-8s n=%d", d.Name, res.Metrics[d.Name], d.Unit, res.Samples[d.Name])
	}
	cfg.logf("attempted %d, failed %d, fail_frac %.3g", res.Attempted, res.Failed, float64(res.Failed)/math.Max(1, float64(res.Attempted)))
	for _, p := range res.Problems {
		cfg.logf("FAIL: %s", p)
	}
	return res, nil
}

// reportEndToEnd fills the end-to-end metrics from the untraced window.
// Wall-clock figures count only the time the guest's CPUs actually ran:
// on a virtual machine the hypervisor takes a share of it (steal time,
// which the guest kernel reports) that changes with other tenants' load
// and would otherwise read as a change of the program. Throughput is ops
// over the unstolen wall time, and latencies are scaled by the unstolen
// share; the raw figures are logged beside them. CPU time per op never
// includes steal.
func reportEndToEnd(cfg *config, res *result, w window) {
	if w.ops == 0 {
		return
	}
	run := 1 - w.steal
	lat := append([]float64(nil), w.lat...)
	p50, p90 := quantile(lat, 0.5), quantile(lat, 0.9)
	res.set("ops_per_s", float64(w.ops)/(w.wall.Seconds()*run), w.ops)
	res.set("op_p50_us", p50*run, w.ops)
	res.set("op_p90_us", p90*run, w.ops)
	res.set("cpu_us_per_op", float64(w.cpu.Nanoseconds())/1e3/float64(w.ops), w.ops)
	res.set("rss_peak_mb", w.rssPeak, 1)
	cfg.logf("steal share %.4f; raw ops/s %.6g, p50 %.1fus, p90 %.1fus", w.steal, float64(w.ops)/w.wall.Seconds(), p50, p90)
	qs := []string{}
	for _, q := range []float64{0.1, 0.25, 0.75, 0.99, 0.999} {
		if q < 0.5 || tailSupported(w.ops, q) {
			qs = append(qs, fmt.Sprintf("p%g=%.1fus", q*100, quantile(lat, q)))
		}
	}
	cfg.logf("raw latency quantiles (n=%d): %s", w.ops, strings.Join(qs, " "))
}

// cpuStat is the guest kernel's CPU accounting summed over all CPUs, in
// clock ticks.
type cpuStat struct{ total, steal uint64 }

// readCPUStat reads the aggregate line of /proc/stat; it returns zeros
// where the file is missing, which makes the steal share 0.
func readCPUStat() cpuStat {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuStat{}
	}
	var st cpuStat
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user and nice.
	for i, v := range f[1:9] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return cpuStat{}
		}
		st.total += n
		if i == 7 {
			st.steal = n
		}
	}
	return st
}

// stealShare is the share of the CPUs' time between two readings that the
// hypervisor gave to other guests.
func stealShare(a, b cpuStat) float64 {
	if b.total <= a.total || b.steal < a.steal {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// printHost records the host fingerprint with the result.
func printHost(cfg *config) {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	cfg.logf("host: cpu %q, nproc %d, GOMAXPROCS %d, %s %s/%s",
		model, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

func fmtFloats(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprintf("%.4g", x)
	}
	return "[" + strings.Join(s, " ") + "]"
}

// sortedKeys returns m's keys in order, for stable reports.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
