package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vbrsim/internal/mpegtrace"
	"vbrsim/internal/trace"
)

func testTracePath(t *testing.T) string {
	t.Helper()
	tr, err := mpegtrace.Generate(mpegtrace.Config{Frames: 1 << 17, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := tr.WriteBinary(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunGOPSynthesis(t *testing.T) {
	path := testTracePath(t)
	outPath := filepath.Join(t.TempDir(), "syn.csv")
	var stdout, stderr bytes.Buffer
	err := run([]string{"-i", path, "-frames", "8192", "-o", outPath}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "mean absolute ACF error") {
		t.Errorf("missing ACF report:\n%s", stdout.String())
	}
	f, err := os.Open(outPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	syn, err := trace.ReadCSV(f)
	if err != nil {
		t.Fatal(err)
	}
	if syn.Len() != 8192 {
		t.Errorf("synthetic has %d frames", syn.Len())
	}
	if syn.Types == nil {
		t.Error("GOP synthesis lost frame types")
	}
}

func TestRunComparisonFiles(t *testing.T) {
	path := testTracePath(t)
	prefix := filepath.Join(t.TempDir(), "cmp")
	var stdout, stderr bytes.Buffer
	err := run([]string{"-i", path, "-frames", "8192", "-compare-out", prefix}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	for _, suffix := range []string{"-acf.dat", "-hist.dat", "-qq.dat"} {
		if data, err := os.ReadFile(prefix + suffix); err != nil || len(data) == 0 {
			t.Errorf("%s: err=%v len=%d", suffix, err, len(data))
		}
	}
}

func TestRunErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(nil, &stdout, &stderr); err == nil {
		t.Error("missing input accepted")
	}
	if err := run([]string{"-i", "/missing.bin"}, &stdout, &stderr); err == nil {
		t.Error("missing file accepted")
	}
}

// -backend reads core's generator table: an unknown name is rejected with
// the table's names, before any input is read. -fast is gone; -backend
// hosking-fast is the one spelling of the truncated-AR path.
func TestRunBackendFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-backend", "bogus", "-i", "/missing.bin"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "streamblock") {
		t.Errorf("unknown backend: err = %v, want the table's names", err)
	}
	if err := run([]string{"-fast", "-i", "/missing.bin"}, &stdout, &stderr); err == nil ||
		!strings.Contains(err.Error(), "not defined") {
		t.Errorf("-fast: err = %v, want an undefined-flag error", err)
	}
	if !strings.Contains(stderr.String(), "auto, hosking, hosking-fast, daviesharte, streamblock") {
		t.Errorf("usage does not list the generator table:\n%s", stderr.String())
	}
}
