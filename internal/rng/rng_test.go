package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedSensitivity(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs out of 1000", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Fatalf("zero-seeded generator produced repeats in first 100 outputs")
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// Child must not replay the parent's continuing stream.
	matches := 0
	for i := 0; i < 1000; i++ {
		if parent.Uint64() == child.Uint64() {
			matches++
		}
	}
	if matches > 0 {
		t.Fatalf("split child matched parent stream %d times", matches)
	}
}

func TestSplitDeterministic(t *testing.T) {
	c1 := New(7).Split()
	c2 := New(7).Split()
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatalf("split is not deterministic at step %d", i)
		}
	}
}

// TestDeriveIsSplitMix64Output pins Derive to the sequence it shortcuts:
// Derive(s, i) is the (i+1)-th output of splitMix64 iterated from state s.
func TestDeriveIsSplitMix64Output(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 0x9e3779b97f4a7c15, math.MaxUint64} {
		state := seed
		for i := uint64(0); i < 64; i++ {
			var out uint64
			state, out = splitMix64(state)
			if got := Derive(seed, i); got != out {
				t.Fatalf("Derive(%#x, %d) = %#x, want output %d of the sequence, %#x", seed, i, got, i+1, out)
			}
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		u := r.Float64()
		if u < 0 || u >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", u)
		}
	}
}

func TestOpenFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		u := r.OpenFloat64()
		if u <= 0 || u >= 1 {
			t.Fatalf("OpenFloat64 out of (0,1): %v", u)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) out of range: %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < 9000 || c > 11000 {
			t.Errorf("Intn(7): value %d count %d, want near 10000", v, c)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

// moments draws n samples with draw and returns their sample mean and variance.
func moments(n int, draw func() float64) (mean, variance float64) {
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := draw()
		sum += x
		sumSq += x * x
	}
	mean = sum / float64(n)
	variance = sumSq/float64(n) - mean*mean
	return mean, variance
}

func TestNormMoments(t *testing.T) {
	r := New(11)
	mean, variance := moments(200000, r.Norm)
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestExpMoments(t *testing.T) {
	r := New(13)
	rate := 2.5
	mean, variance := moments(200000, func() float64 { return r.Exp(rate) })
	if math.Abs(mean-1/rate) > 0.01 {
		t.Errorf("exp mean = %v, want %v", mean, 1/rate)
	}
	if math.Abs(variance-1/(rate*rate)) > 0.02 {
		t.Errorf("exp variance = %v, want %v", variance, 1/(rate*rate))
	}
}

func TestGammaMoments(t *testing.T) {
	r := New(17)
	for _, tc := range []struct{ shape, scale float64 }{
		{0.5, 2.0}, {1.0, 1.0}, {2.3, 0.7}, {9.0, 3.0},
	} {
		mean, variance := moments(200000, func() float64 { return r.Gamma(tc.shape, tc.scale) })
		wantMean := tc.shape * tc.scale
		wantVar := tc.shape * tc.scale * tc.scale
		if math.Abs(mean-wantMean) > 0.03*wantMean+0.01 {
			t.Errorf("gamma(%v,%v) mean = %v, want %v", tc.shape, tc.scale, mean, wantMean)
		}
		if math.Abs(variance-wantVar) > 0.08*wantVar+0.02 {
			t.Errorf("gamma(%v,%v) variance = %v, want %v", tc.shape, tc.scale, variance, wantVar)
		}
	}
}

func TestParetoMoments(t *testing.T) {
	r := New(19)
	alpha, xm := 3.0, 2.0
	mean, _ := moments(200000, func() float64 { return r.Pareto(alpha, xm) })
	wantMean := alpha * xm / (alpha - 1)
	if math.Abs(mean-wantMean) > 0.05*wantMean {
		t.Errorf("pareto mean = %v, want %v", mean, wantMean)
	}
	// Support check.
	for i := 0; i < 10000; i++ {
		if v := r.Pareto(alpha, xm); v < xm {
			t.Fatalf("pareto sample %v below minimum %v", v, xm)
		}
	}
}

func TestLognormalMoments(t *testing.T) {
	r := New(23)
	mu, sigma := 0.5, 0.4
	mean, _ := moments(200000, func() float64 { return r.Lognormal(mu, sigma) })
	wantMean := math.Exp(mu + sigma*sigma/2)
	if math.Abs(mean-wantMean) > 0.02*wantMean {
		t.Errorf("lognormal mean = %v, want %v", mean, wantMean)
	}
}

func TestParetoTailProperty(t *testing.T) {
	// P(X > x) = (xm/x)^alpha: check at a few thresholds by simulation.
	r := New(29)
	alpha, xm := 1.5, 1.0
	const n = 200000
	exceed3 := 0
	for i := 0; i < n; i++ {
		if r.Pareto(alpha, xm) > 3 {
			exceed3++
		}
	}
	got := float64(exceed3) / n
	want := math.Pow(xm/3, alpha)
	if math.Abs(got-want) > 0.01 {
		t.Errorf("P(X>3) = %v, want %v", got, want)
	}
}

func TestPoissonMoments(t *testing.T) {
	r := New(31)
	for _, mean := range []float64{0.0, 0.3, 5, 50, 200} {
		const n = 50000
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			v := float64(r.Poisson(mean))
			if v < 0 {
				t.Fatalf("negative Poisson draw")
			}
			sum += v
			sumSq += v * v
		}
		m := sum / n
		variance := sumSq/n - m*m
		if math.Abs(m-mean) > 0.05*mean+0.01 {
			t.Errorf("Poisson(%v) mean = %v", mean, m)
		}
		if mean > 0 && math.Abs(variance-mean) > 0.1*mean+0.05 {
			t.Errorf("Poisson(%v) variance = %v", mean, variance)
		}
	}
}

func TestSamplerPanics(t *testing.T) {
	cases := map[string]func(){
		"exp":     func() { New(1).Exp(0) },
		"pareto":  func() { New(1).Pareto(0, 1) },
		"gamma":   func() { New(1).Gamma(-1, 1) },
		"poisson": func() { New(1).Poisson(-1) },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: invalid parameter did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestQuickFloat64InRange(t *testing.T) {
	f := func(seed uint64, steps uint8) bool {
		r := New(seed)
		for i := 0; i < int(steps); i++ {
			u := r.Float64()
			if u < 0 || u >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSplitDiffers(t *testing.T) {
	f := func(seed uint64) bool {
		p := New(seed)
		c := p.Split()
		// First outputs after the split must differ.
		return p.Uint64() != c.Uint64()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}

func BenchmarkNorm(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Norm()
	}
	_ = sink
}
