// Command perfbench is vbrsim's end-to-end benchmark. It runs one named
// workload for a fixed time, checks the program's outputs, and prints the
// metrics as the last line of standard output:
//
//	perfbench --workload frames-bulk --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//   - frames-bulk: 2 clients GET /frames?n=4096 over 64 block-engine paper
//     sessions (synthesis-bound).
//   - frames-churn: 2 clients GET /frames?n=16 over a 10k-session TES fleet;
//     every 64th op creates, reads and deletes a block paper session.
//   - step-fleet: 1 client POSTs /v1/streams/step (n=1024) over 64 block
//     sessions and 4 trunks of 16 block sources.
//   - is-estimate: the offline trace -> fit -> truncated plan -> importance
//     sampling overflow estimate, in process, no server.
//
// The serving workloads run server.New behind a loopback net/http listener
// in this process and drive it through the public client package, one
// keep-alive connection per client goroutine. With --trace 0 the result
// holds the end-to-end metrics (metrics.go); with --trace 1 a traced run
// replays every request through the layers' public calls and reports the
// per-layer metrics, writing its spans under .bench_build/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	var cfg config
	fs.StringVar(&cfg.Workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&cfg.Seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&cfg.Seconds, "seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	cfg.Trace = *trace == 1
	if cfg.Seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}
	if newWorkload(cfg.Workload) == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", cfg.Workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg.Log = stdout
	cfg.SpanDir = ".bench_build"
	res, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res.summary(cfg.Trace))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
