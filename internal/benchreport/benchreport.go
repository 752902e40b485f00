// Package benchreport defines the committed BENCH_*.json schema and the
// regression-diff logic shared by the tools that write and gate those
// reports: cmd/bench (the ablation suite) and cmd/loadgen (the serving
// capacity harness). One schema means one benchdiff gate can cover both.
package benchreport

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
)

// Entry is one benchmark's measurement in a report.
type Entry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	N           int     `json:"n"`
	// GOMAXPROCS is recorded per benchmark: parallel entries (NewPlanParallel,
	// loadgen capacity runs) are meaningless without the core count they ran
	// at, and a report assembled across machines would otherwise lose the
	// provenance.
	GOMAXPROCS int                `json:"gomaxprocs"`
	Extra      map[string]float64 `json:"extra,omitempty"`
}

// Report is the BENCH_*.json schema: environment header plus one entry per
// benchmark, keyed by name.
type Report struct {
	GoVersion  string           `json:"go_version"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Date       string           `json:"date"`
	Benchmarks map[string]Entry `json:"benchmarks"`
}

// Delta is one benchmark's old-vs-new comparison.
type Delta struct {
	Name     string
	Old, New float64 // ns/op
	// Frac is (new-old)/old; positive means slower.
	Frac float64
	// Missing marks a benchmark present in only one report (never a
	// regression by itself).
	Missing bool
}

// Compare diffs fresh against old per benchmark. It fails when a shared
// benchmark regressed beyond threshold (fractional ns/op increase), and
// when no benchmark is shared at all: a gate that compares nothing must
// not pass. Improvements and new/vanished benchmarks never fail.
func Compare(old, fresh Report, threshold float64) (deltas []Delta, err error) {
	shared := 0
	var regressed []string
	for name, n := range fresh.Benchmarks {
		o, ok := old.Benchmarks[name]
		if !ok {
			deltas = append(deltas, Delta{Name: name, New: n.NsPerOp, Missing: true})
			continue
		}
		shared++
		d := Delta{Name: name, Old: o.NsPerOp, New: n.NsPerOp}
		if o.NsPerOp > 0 {
			d.Frac = (n.NsPerOp - o.NsPerOp) / o.NsPerOp
		}
		if d.Frac > threshold {
			regressed = append(regressed, name)
		}
		deltas = append(deltas, d)
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].Name < deltas[j].Name })
	switch {
	case shared == 0:
		return deltas, errors.New("no measured benchmark is in the baseline")
	case len(regressed) > 0:
		sort.Strings(regressed)
		return deltas, fmt.Errorf("regression beyond %.0f%%: %s", 100*threshold, strings.Join(regressed, ", "))
	}
	return deltas, nil
}

// ReadFile loads a committed report.
func ReadFile(path string) (Report, error) {
	var rep Report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// WriteFile writes the report as indented JSON.
func (rep Report) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
