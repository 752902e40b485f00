package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"vbrsim/internal/acf"
)

// Every canonical name and alias parses to its backend, and the backend
// prints as the canonical name.
func TestParseBackendRoundTrip(t *testing.T) {
	if b, err := ParseBackend(""); err != nil || b != BackendAuto {
		t.Fatalf("empty name: %v, %v", b, err)
	}
	if got := BackendAuto.String(); got != "auto" {
		t.Fatalf("BackendAuto prints as %q", got)
	}
	for _, g := range Generators() {
		for _, name := range append([]string{g.Name, strings.ToUpper(g.Name)}, g.Aliases...) {
			b, err := ParseBackend(name)
			if err != nil {
				t.Fatalf("%q: %v", name, err)
			}
			if got := b.String(); got != g.Name {
				t.Errorf("%q parses to %v, which prints as %q", name, b, got)
			}
			if e, err := b.Generator(0); err != nil || e.Name != g.Name {
				t.Errorf("%q: table lookup gives %q, %v", name, e.Name, err)
			}
		}
	}
}

func TestParseBackendUnknownListsNames(t *testing.T) {
	_, err := ParseBackend("bogus")
	if err == nil {
		t.Fatal("unknown backend accepted")
	}
	for _, name := range BackendNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
	if _, err := Backend(99).Generator(10); err == nil {
		t.Error("out-of-table backend has a generator")
	}
}

// BackendAuto is a rule, not an entry: Hosking up to autoHoskingLimit
// frames, Davies-Harte beyond.
func TestAutoResolves(t *testing.T) {
	for n, want := range map[int]string{autoHoskingLimit: "hosking", autoHoskingLimit + 1: "daviesharte"} {
		g, err := BackendAuto.Generator(n)
		if err != nil || g.Name != want {
			t.Errorf("auto at n=%d: %q, %v; want %q", n, g.Name, err, want)
		}
	}
}

// Each entry's fill is allocation-free once its arena is warm, and its
// one-shot Path draws the same path: bit for bit, except Davies-Harte,
// whose one-shot kernel is the full complex FFT.
func TestGeneratorFillMatchesPath(t *testing.T) {
	ctx := context.Background()
	model := acf.FGN{H: 0.8}
	const n, seed = 3000, 17
	for _, g := range Generators() {
		fill, err := g.Prepare(ctx, model, n)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		var a Arena
		got := make([]float64, n)
		fill(got, &a, seed+1)
		fill(got, &a, seed)
		want, err := g.Path(ctx, model, n, seed)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		tol := 0.0
		if g.Name == BackendDaviesHarte.String() {
			tol = 1e-9
		}
		for i := range want {
			if d := math.Abs(got[i] - want[i]); d > tol || math.IsNaN(d) {
				t.Fatalf("%s: frame %d: fill %v, Path %v", g.Name, i, got[i], want[i])
			}
		}
		if allocs := testing.AllocsPerRun(3, func() { fill(got, &a, seed) }); allocs != 0 {
			t.Errorf("%s: warm fill allocates %v/op", g.Name, allocs)
		}
		a.Close()
	}
}
