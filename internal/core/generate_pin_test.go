package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"vbrsim/internal/trace"
)

// pinBackends are the backends whose offline output TestGenerateBytesPinned
// locks. The lengths straddle BackendAuto's switch at autoHoskingLimit and
// the clamp behind BackendHoskingFast's truncated plan.
var (
	pinBackends = []Backend{BackendAuto, BackendHosking, BackendDaviesHarte, BackendHoskingFast}
	pinLengths  = []int{256, 3000, 5000}
)

// pinnedGenerate holds the FNV-1a fingerprint of the Float64bits of every
// frame Model.Generate ("model") and GOPModel.Generate ("gop") return for
// seed 5 on the test-trace fixtures, keyed by "kind/backend/n".
var pinnedGenerate = map[string]string{
	"model/0/256":  "595162b58540e3be",
	"model/0/3000": "d8b235cffdd59834",
	"model/0/5000": "502f24d4d6a45131",
	"model/1/256":  "595162b58540e3be",
	"model/1/3000": "d8b235cffdd59834",
	"model/1/5000": "8ff895e12305ca7a",
	"model/2/256":  "f1244155aeee574a",
	"model/2/3000": "a233e1f6548201a8",
	"model/2/5000": "502f24d4d6a45131",
	"model/3/256":  "595162b58540e3be",
	"model/3/3000": "edb356d2ad8ebd00",
	"model/3/5000": "9d453d8d7b57fd75",
	"gop/0/256":    "a3adf81e4644b1a3",
	"gop/0/3000":   "8844658f6b04d59a",
	"gop/0/5000":   "4c9a47f4594a405c",
	"gop/1/256":    "a3adf81e4644b1a3",
	"gop/1/3000":   "8844658f6b04d59a",
	"gop/1/5000":   "a360ec3ae15b4667",
	"gop/2/256":    "2be53171f4410dab",
	"gop/2/3000":   "483635e34180b78e",
	"gop/2/5000":   "4c9a47f4594a405c",
	"gop/3/256":    "a3adf81e4644b1a3",
	"gop/3/3000":   "8844658f6b04d59a",
	"gop/3/5000":   "a360ec3ae15b4667",
}

// fingerprint hashes the exact bit patterns of xs.
func fingerprint(xs []float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range xs {
		binary.BigEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestGenerateBytesPinned locks the exact bytes of offline generation on
// every backend: any change to how a backend builds its plan, draws its
// normals or routes through BackendAuto shows up here, even when it is
// statistically invisible.
func TestGenerateBytesPinned(t *testing.T) {
	tr := testTrace(t, 1<<16)
	m, err := Fit(tr.ByType(trace.FrameI), FitOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	g, err := FitGOP(testTrace(t, 1<<17), FitOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range pinBackends {
		for _, n := range pinLengths {
			sizes, err := m.Generate(n, 5, b)
			if err != nil {
				t.Fatalf("model backend %d n %d: %v", b, n, err)
			}
			gtr, err := g.Generate(n, 5, b)
			if err != nil {
				t.Fatalf("gop backend %d n %d: %v", b, n, err)
			}
			for kind, xs := range map[string][]float64{"model": sizes, "gop": gtr.Sizes} {
				key := fmt.Sprintf("%s/%d/%d", kind, b, n)
				if got, want := fingerprint(xs), pinnedGenerate[key]; got != want {
					t.Errorf("%s: fingerprint %s, want %s", key, got, want)
				}
			}
		}
	}
}
