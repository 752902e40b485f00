package modelspec

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// contractSpecs holds one spec per registered engine; TestEngineContract
// fails for an engine registered without one.
var contractSpecs = map[string]Spec{
	EngineTruncated: {Seed: 11, ACF: Paper().ACF, Marginal: Paper().Marginal},
	EngineBlock:     {Seed: 11, ACF: Paper().ACF, Marginal: Paper().Marginal, Engine: EngineBlock},
	EngineGOP:       {Seed: 5, Engine: EngineGOP, GOP: &GOPSpec{SceneAlpha: 1.4}},
	EngineTES: {Seed: 5, Engine: EngineTES, TES: &TESSpec{Alpha: 0.4, Minus: true},
		Marginal: &MarginalSpec{Kind: "gamma", Shape: 2, Scale: 1300}},
}

// TestEngineContract holds every registered engine to the Stream contract
// against one sequential Fill: uneven Fill pieces (single frames included),
// forward and backward seeks, recovery after a canceled seek, and
// Reseed(Seed()) replay.
func TestEngineContract(t *testing.T) {
	ctx := context.Background()
	for _, name := range Engines() {
		t.Run(name, func(t *testing.T) {
			spec, ok := contractSpecs[name]
			if !ok {
				t.Fatalf("registered engine %q has no contract spec", name)
			}
			// Long enough to span two of the block engine's ~8k-frame blocks.
			const n = 20000
			want := make([]float64, n)
			mustOpen(t, &spec).Fill(want)

			st := mustOpen(t, &spec)
			got := make([]float64, n)
			for off, k := 0, 0; off < n; k++ {
				m := min([]int{1, 7, 1000, 1, 4099}[k%5], n-off)
				st.Fill(got[off : off+m])
				off += m
			}
			bitsEqual(t, "uneven Fill", got, want, 0)

			buf := make([]float64, 300)
			seekRead := func(pos int) {
				t.Helper()
				if err := st.SeekCtx(ctx, pos); err != nil {
					t.Fatal(err)
				}
				if st.Pos() != pos {
					t.Fatalf("Pos after seek = %d, want %d", st.Pos(), pos)
				}
				st.Fill(buf)
				bitsEqual(t, fmt.Sprintf("read after seek to %d", pos), buf, want[pos:pos+len(buf)], pos)
			}
			// Backward, to zero, forward, in place, and across block
			// boundaries in both directions.
			for _, pos := range []int{15000, 200, 0, 9001, 9301, n - len(buf), 17} {
				seekRead(pos)
			}

			canceled, cancel := context.WithCancel(ctx)
			cancel()
			for _, pos := range []int{5, 1 << 20} { // backward, then forward
				if err := st.SeekCtx(canceled, pos); err != nil && !errors.Is(err, context.Canceled) {
					t.Fatalf("canceled seek to %d: %v", pos, err)
				}
				seekRead(4321)
			}

			st.Reseed(st.Seed())
			if st.Pos() != 0 {
				t.Fatalf("Pos after Reseed = %d", st.Pos())
			}
			st.Fill(got)
			bitsEqual(t, "Reseed(Seed()) replay", got, want, 0)

			// A different seed must change the stream.
			st.Reseed(spec.Seed + 1)
			if st.Seed() != spec.Seed+1 {
				t.Fatalf("Seed after Reseed = %d", st.Seed())
			}
			st.Fill(buf)
			same := 0
			for i, v := range buf {
				if v == want[i] {
					same++
				}
			}
			if same > len(buf)/10 {
				t.Errorf("reseeded stream matched %d/%d frames of the original", same, len(buf))
			}
		})
	}
}
