package conformance

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"vbrsim/internal/core"
	"vbrsim/internal/modelspec"
	"vbrsim/internal/trunk"
)

// update regenerates the golden traces instead of comparing against them:
//
//	go test ./internal/conformance -run TestGolden -update
var update = flag.Bool("update", false, "rewrite golden trace files")

const (
	goldenFrames = 256
	goldenSeed   = 424242
)

// goldenSources enumerates every deterministic frame producer that gets a
// golden trace: every entry of core's generator table pushed through the
// marginal transform (an entry without a golden file fails), the serving
// paths (modelspec.Stream via Spec.Frames — exactly what trafficd emits) on
// every registered engine, and a mixed-engine trunk whose components
// inherit a shared marginal. A registered engine without a golden spec is
// an error, so adding an engine means adding its trace.
func goldenSources(ctx context.Context) (map[string][]float64, error) {
	comp, tr, _, err := paperModel()
	if err != nil {
		return nil, err
	}
	out := make(map[string][]float64)
	for _, b := range core.Generators() {
		bg, err := b.Path(ctx, comp, goldenFrames, goldenSeed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		out[b.Name] = tr.ApplySlice(bg)
	}
	paper := modelspec.Paper()
	paper.Seed = goldenSeed
	specs := goldenStreamSpecs(paper)
	for _, engine := range modelspec.Engines() {
		spec, ok := specs[engine]
		if !ok {
			return nil, fmt.Errorf("registered engine %q has no golden stream spec", engine)
		}
		frames, err := spec.Frames(ctx, 0, goldenFrames, 0)
		if err != nil {
			return nil, fmt.Errorf("engine %s: %w", engine, err)
		}
		name := "stream_" + engine
		if engine == modelspec.EngineTruncated {
			name = "stream" // the default engine, traced before engines had names
		}
		out[name] = frames
	}
	trunkFrames, err := goldenTrunk(ctx, paper)
	if err != nil {
		return nil, err
	}
	out["trunk_mixed"] = trunkFrames
	return out, nil
}

// goldenStreamSpecs holds the golden spec of each engine at the golden seed.
func goldenStreamSpecs(paper modelspec.Spec) map[string]modelspec.Spec {
	block := paper
	block.Engine = modelspec.EngineBlock
	return map[string]modelspec.Spec{
		modelspec.EngineTruncated: paper,
		modelspec.EngineBlock:     block,
		modelspec.EngineGOP: {
			Seed:   goldenSeed,
			Engine: modelspec.EngineGOP,
			GOP:    &modelspec.GOPSpec{},
		},
		modelspec.EngineTES: {
			Seed:     goldenSeed,
			Engine:   modelspec.EngineTES,
			TES:      &modelspec.TESSpec{Alpha: 0.3},
			Marginal: paper.Marginal,
		},
	}
}

// goldenTrunk plays a block + gop + tes trunk under a shared marginal: the
// block and tes components inherit it, the gop component keeps its own.
func goldenTrunk(ctx context.Context, paper modelspec.Spec) ([]float64, error) {
	spec := &modelspec.TrunkSpec{
		Seed: goldenSeed,
		Components: []modelspec.TrunkComponent{
			{Count: 2, Spec: modelspec.Spec{ACF: paper.ACF, Engine: modelspec.EngineBlock}},
			{Spec: modelspec.Spec{Engine: modelspec.EngineGOP, GOP: &modelspec.GOPSpec{}}},
			{Weight: 2, Spec: modelspec.Spec{Engine: modelspec.EngineTES, TES: &modelspec.TESSpec{Alpha: 0.3}}},
		},
		Marginal: paper.Marginal,
	}
	t, err := trunk.Open(ctx, spec, trunk.Options{Workers: 1})
	if err != nil {
		return nil, err
	}
	defer t.Close()
	out := make([]float64, goldenFrames)
	t.Fill(out)
	return out, nil
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden_"+name+".txt")
}

// TestGoldenTraces locks the first 256 frames of every backend at a fixed
// seed, bit-exact: each line of the golden file is the big-endian hex of
// math.Float64bits, so ANY numeric change — reordered floating-point
// reduction, changed RNG draw order, different truncation — fails the
// test, even when it is statistically invisible. Intentional changes are
// re-blessed with -update.
func TestGoldenTraces(t *testing.T) {
	sources, err := goldenSources(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for name, frames := range sources {
		t.Run(name, func(t *testing.T) {
			if len(frames) != goldenFrames {
				t.Fatalf("generated %d frames, want %d", len(frames), goldenFrames)
			}
			path := goldenPath(name)
			if *update {
				writeGolden(t, path, frames)
				return
			}
			want := readGolden(t, path)
			if len(want) != len(frames) {
				t.Fatalf("%s holds %d frames, want %d (rerun with -update after intentional changes)", path, len(want), len(frames))
			}
			for i, w := range want {
				got := math.Float64bits(frames[i])
				if got != w {
					t.Fatalf("frame %d: got %x (%v), want %x (%v) — bit-exact regression; rerun with -update only if the change is intentional",
						i, got, frames[i], w, math.Float64frombits(w))
				}
			}
		})
	}
}

func writeGolden(t *testing.T, path string, frames []float64) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	for _, v := range frames {
		fmt.Fprintf(w, "%016x\n", math.Float64bits(v))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d frames)", path, len(frames))
}

func readGolden(t *testing.T, path string) []uint64 {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	defer f.Close()
	var out []uint64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		bits, err := strconv.ParseUint(line, 16, 64)
		if err != nil {
			t.Fatalf("%s: bad line %q: %v", path, line, err)
		}
		out = append(out, bits)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
