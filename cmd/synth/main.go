// Command synth fits the unified model to an input trace, generates a
// synthetic trace from it, and reports how well the synthetic stream matches
// the original (ACF comparison, marginal histograms, Q-Q) — the paper's
// Figs. 8-13 workflow in one tool.
//
// Usage:
//
//	synth -i trace.csv -frames 65536 -o synthetic.csv
//	synth -i trace.csv -gop -frames 65536 -compare-out cmp
//	synth -i trace.csv -frames 1048576 -backend hosking-fast   # truncated-AR fast path
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"vbrsim/internal/core"
	"vbrsim/internal/obs"
	"vbrsim/internal/stats"
	"vbrsim/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "synth:", err)
		os.Exit(1)
	}
}

// run executes the tool; split from main for testability.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("synth", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in          = fs.String("i", "", "input trace (csv or bin)")
		frames      = fs.Int("frames", 1<<16, "synthetic frames to generate")
		seed        = fs.Uint64("seed", 1, "generation seed")
		gop         = fs.Bool("gop", true, "use the composite I-B-P model when the trace has types")
		out         = fs.String("o", "", "write the synthetic trace here (csv or bin)")
		cmpOut      = fs.String("compare-out", "", "write <prefix>-{acf,hist,qq}.dat comparison files")
		acfLags     = fs.Int("acf-lags", 490, "ACF comparison lags")
		backendName = fs.String("backend", "auto", "background generator: "+strings.Join(core.BackendNames(), ", "))
		traceOut    = fs.String("trace-out", "", "write pipeline stage spans as NDJSON to this file (- for stderr)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx := context.Background()
	var tracer *obs.Tracer
	if *traceOut != "" {
		var tw io.Writer = stderr
		if *traceOut != "-" {
			f, err := os.Create(*traceOut)
			if err != nil {
				return err
			}
			defer f.Close()
			tw = f
		}
		tracer = obs.NewTracer(tw)
		ctx = obs.ContextWithTracer(ctx, tracer)
	}
	backend, err := core.ParseBackend(*backendName)
	if err != nil {
		return fmt.Errorf("-backend: %w", err)
	}
	if *in == "" {
		return fmt.Errorf("missing -i input trace")
	}
	tr, err := trace.ReadFile(*in)
	if err != nil {
		return err
	}

	var syn *trace.Trace
	if *gop && tr.Types != nil {
		span := tracer.Start("fit.gop")
		g, err := core.FitGOP(tr, core.FitOptions{Seed: *seed})
		if err != nil {
			return err
		}
		span.End(map[string]any{"frames": len(tr.Sizes), "gop_period": g.KI})
		span = tracer.Start("generate")
		syn, err = g.Generate(*frames, *seed, backend)
		if err != nil {
			return err
		}
		span.End(map[string]any{"frames": *frames, "backend": *backendName})
	} else {
		m, err := core.FitCtx(ctx, tr.Sizes, core.FitOptions{Seed: *seed})
		if err != nil {
			return err
		}
		span := tracer.Start("generate")
		sizes, err := m.Generate(*frames, *seed, backend)
		if err != nil {
			return err
		}
		span.End(map[string]any{"frames": *frames, "backend": *backendName})
		syn = &trace.Trace{Sizes: sizes, FrameRate: tr.FrameRate}
	}

	empMean := stats.Mean(tr.Sizes)
	synMean := stats.Mean(syn.Sizes)
	fmt.Fprintf(stdout, "empirical mean %.1f bytes/frame, synthetic %.1f (%.1f%% off)\n",
		empMean, synMean, 100*math.Abs(synMean-empMean)/empMean)

	ea := stats.Autocorrelation(tr.Sizes, *acfLags)
	sa := stats.Autocorrelation(syn.Sizes, *acfLags)
	var mae float64
	n := 0
	for k := 1; k <= *acfLags && k < len(ea) && k < len(sa); k++ {
		mae += math.Abs(ea[k] - sa[k])
		n++
	}
	fmt.Fprintf(stdout, "mean absolute ACF error over %d lags: %.4f\n", n, mae/float64(n))

	if *out != "" {
		if err := syn.WriteFile(*out); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %s\n", *out)
	}
	if *cmpOut != "" {
		if err := writeComparisons(*cmpOut, stderr, tr, syn, ea, sa); err != nil {
			return err
		}
	}
	return nil
}

func writeComparisons(prefix string, stderr io.Writer, emp, syn *trace.Trace, ea, sa []float64) error {
	if err := writeDat(prefix+"-acf.dat", stderr, func(f io.Writer) {
		for k := 1; k < len(ea) && k < len(sa); k++ {
			fmt.Fprintf(f, "%d\t%g\t%g\n", k, ea[k], sa[k])
		}
	}); err != nil {
		return err
	}
	hi := math.Max(stats.Max(emp.Sizes), stats.Max(syn.Sizes)) * 1.001
	he := stats.NewHistogram(emp.Sizes, 0, hi, 80)
	hs := stats.NewHistogram(syn.Sizes, 0, hi, 80)
	if err := writeDat(prefix+"-hist.dat", stderr, func(f io.Writer) {
		fe, fsyn := he.Frequencies(), hs.Frequencies()
		for i := range fe {
			fmt.Fprintf(f, "%g\t%g\t%g\n", he.BinCenter(i), fe[i], fsyn[i])
		}
	}); err != nil {
		return err
	}
	qe, qs, err := stats.QQPairs(emp.Sizes, syn.Sizes, 100)
	if err != nil {
		return err
	}
	return writeDat(prefix+"-qq.dat", stderr, func(f io.Writer) {
		for i := range qe {
			fmt.Fprintf(f, "%g\t%g\n", qe[i], qs[i])
		}
	})
}

func writeDat(path string, stderr io.Writer, fill func(io.Writer)) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	fill(f)
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %s\n", path)
	return nil
}
