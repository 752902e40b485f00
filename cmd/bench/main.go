// Command bench runs the fast-path ablation benchmark suite outside of
// `go test` and writes the results as machine-readable JSON, so before/after
// performance numbers can be committed and diffed across PRs.
//
// Usage:
//
//	go run ./cmd/bench                 # writes BENCH_8.json
//	go run ./cmd/bench -o out.json -benchtime 2s
//	go run ./cmd/bench -only 'StreamBlockFill' -benchtime 300ms
//	go run ./cmd/bench -only 'DHPathRealInto|StreamBlockFill' \
//	    -compare BENCH_8.json -threshold 0.25
//
// With -compare the freshly measured subset is diffed against the old
// report per benchmark; any regression beyond -threshold (fractional
// ns/op increase) makes the command exit nonzero, which is the CI
// benchdiff gate.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"testing"
	"time"

	"vbrsim/internal/benchreport"
	"vbrsim/internal/benchsuite"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// filterSuite selects the benchmarks whose names match re (nil keeps all).
func filterSuite(benches []benchsuite.Bench, re *regexp.Regexp) []benchsuite.Bench {
	if re == nil {
		return benches
	}
	var out []benchsuite.Bench
	for _, bm := range benches {
		if re.MatchString(bm.Name) {
			out = append(out, bm)
		}
	}
	return out
}

// run executes the tool; split from main for testability.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out       = fs.String("o", "", "output JSON file (default BENCH_8.json; suppressed under -compare)")
		benchtime = fs.Duration("benchtime", time.Second, "target time per benchmark")
		only      = fs.String("only", "", "regexp selecting a benchmark subset by name")
		compare   = fs.String("compare", "", "old report to diff against; regressions beyond -threshold fail")
		threshold = fs.Float64("threshold", 0.25, "fractional ns/op regression tolerated under -compare")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var re *regexp.Regexp
	if *only != "" {
		var err error
		if re, err = regexp.Compile(*only); err != nil {
			return fmt.Errorf("-only: %w", err)
		}
	}
	var old benchreport.Report
	if *compare != "" {
		var err error
		if old, err = benchreport.ReadFile(*compare); err != nil {
			return err
		}
	}

	// testing.Benchmark honours the package-level -test.benchtime flag;
	// outside `go test` it must be registered (testing.Init) and set by hand.
	testing.Init()
	if err := flag.CommandLine.Parse([]string{"-test.benchtime", benchtime.String()}); err != nil {
		return err
	}

	rep := benchreport.Report{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Date:       time.Now().UTC().Format(time.RFC3339),
		Benchmarks: make(map[string]benchreport.Entry),
	}
	benches := filterSuite(benchsuite.Suite(), re)
	if len(benches) == 0 {
		return fmt.Errorf("-only %q matches no benchmarks", *only)
	}
	for _, bm := range benches {
		fmt.Fprintf(stdout, "%-28s ", bm.Name)
		res := testing.Benchmark(bm.F)
		e := benchreport.Entry{
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
			N:           res.N,
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
		}
		if len(res.Extra) > 0 {
			e.Extra = make(map[string]float64, len(res.Extra))
			for k, v := range res.Extra {
				e.Extra[k] = v
			}
		}
		rep.Benchmarks[bm.Name] = e
		fmt.Fprintf(stdout, "%12.0f ns/op %8d B/op %6d allocs/op\n", e.NsPerOp, e.BytesPerOp, e.AllocsPerOp)
	}

	if *compare != "" {
		deltas, failed := benchreport.Compare(old, rep, *threshold)
		for _, d := range deltas {
			if d.Missing {
				fmt.Fprintf(stdout, "%-28s %12.0f ns/op   (not in %s)\n", d.Name, d.New, *compare)
				continue
			}
			fmt.Fprintf(stdout, "%-28s %12.0f -> %10.0f ns/op  %+6.1f%%\n", d.Name, d.Old, d.New, 100*d.Frac)
		}
		if failed {
			return fmt.Errorf("benchmark regression beyond %.0f%% vs %s", 100**threshold, *compare)
		}
		fmt.Fprintf(stdout, "no regression beyond %.0f%% vs %s\n", 100**threshold, *compare)
	}

	if *out == "" {
		if *compare != "" {
			return nil // compare runs are gates, not report refreshes
		}
		*out = "BENCH_8.json"
	}
	if err := rep.WriteFile(*out); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", *out)
	return nil
}
