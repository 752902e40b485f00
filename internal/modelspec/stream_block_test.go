package modelspec

import (
	"context"
	"math"
	"testing"
)

// blockSpec is the paper spec on the block engine at a fixed seed.
func blockSpec(seed uint64) Spec {
	spec := Paper()
	spec.Seed = seed
	spec.Engine = EngineBlock
	return spec
}

// blockRef generates the reference frame range through Spec.Frames — the
// offline reference trafficd sessions must match bit-exactly.
func blockRef(t *testing.T, seed uint64, n int) []float64 {
	t.Helper()
	spec := blockSpec(seed)
	frames, err := spec.Frames(context.Background(), 0, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	return frames
}

func bitsEqual(t *testing.T, what string, got, want []float64, base int) {
	t.Helper()
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: frame %d differs: got %v, want %v", what, base+i, got[i], want[i])
		}
	}
}

// TestBlockEngineDeterministic locks the offline-vs-served contract for the
// block engine: two independent opens of the same spec produce bit-
// identical frames, and chunked Fill agrees with one-shot Frames.
func TestBlockEngineDeterministic(t *testing.T) {
	const n = 2048
	want := blockRef(t, 7, n)

	spec := blockSpec(7)
	st, err := spec.OpenCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	got := make([]float64, n)
	for off := 0; off < n; off += 160 {
		end := off + 160
		if end > n {
			end = n
		}
		st.Fill(got[off:end])
	}
	bitsEqual(t, "chunked Fill vs Frames", got, want, 0)
}

// TestBlockEngineSeekResume covers the seek-&-resume satellite matrix on
// the block stream: forward seek, backward seek, and a seek landing exactly
// on a block boundary must all be bit-identical to a fresh stream replayed
// from the seed.
func TestBlockEngineSeekResume(t *testing.T) {
	spec := blockSpec(424242)
	st, err := spec.OpenCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// The serving engine's block size: DefaultTotal minus the AR order.
	blockLen := 8192 - st.Order()
	total := 2*blockLen + 256
	want := blockRef(t, 424242, total)

	ctx := context.Background()
	read := make([]float64, 128)
	for _, pos := range []int{
		0,                // restart from the top
		blockLen - 64,    // straddles the first boundary
		blockLen,         // lands exactly on a block boundary
		2 * blockLen,     // boundary again, one block ahead
		blockLen + 1,     // backward seek into the stitched region
		17,               // backward into block 0
		2*blockLen + 100, // forward again
	} {
		if err := st.SeekCtx(ctx, pos); err != nil {
			t.Fatal(err)
		}
		if got := st.Pos(); got != pos {
			t.Fatalf("SeekCtx(%d): Pos() = %d", pos, got)
		}
		n := len(read)
		if pos+n > total {
			n = total - pos
		}
		st.Fill(read[:n])
		bitsEqual(t, "seek-then-read vs fresh replay", read[:n], want[pos:pos+n], pos)
	}
}

// TestBlockEngineDiffersFromTruncated is a tripwire for silent engine
// fallback: the two engines are different processes frame-by-frame, so a
// block spec must not produce the truncated stream.
func TestBlockEngineDiffersFromTruncated(t *testing.T) {
	const n = 256
	ctx := context.Background()
	truncSpec := Paper()
	truncSpec.Seed = 5
	truncFrames, err := truncSpec.Frames(ctx, 0, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	blockFrames := blockRef(t, 5, n)
	same := 0
	for i := range blockFrames {
		if blockFrames[i] == truncFrames[i] {
			same++
		}
	}
	if same == n {
		t.Fatal("block engine emitted the truncated engine's frames")
	}
}

// TestEngineValidation locks the wire-format gate: unknown engine names
// must be rejected at Validate/Parse time, and both known names accepted.
func TestEngineValidation(t *testing.T) {
	spec := Paper()
	for _, ok := range []string{"", EngineTruncated, EngineBlock} {
		spec.Engine = ok
		if err := spec.Validate(); err != nil {
			t.Fatalf("engine %q rejected: %v", ok, err)
		}
	}
	for _, bad := range []string{"blocky", "BLOCK", "ar", "exact"} {
		spec.Engine = bad
		if err := spec.Validate(); err == nil {
			t.Fatalf("engine %q accepted", bad)
		}
	}
	if _, err := Parse([]byte(`{"acf":{"weights":[1],"rates":[0.1],"l":1,"beta":0.2,"knee":10},"engine":"warp"}`)); err == nil {
		t.Fatal("Parse accepted an unknown engine")
	}
}
