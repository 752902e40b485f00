// Reference implementation of the pre-flat ragged plan layout. It exists so
// the flat-layout plan can be checked bit-for-bit against the historical
// recursion, and so BenchmarkFlatVsRagged has a faithful baseline to
// measure against. It lives in a test file: no production build carries it.
package hosking

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"vbrsim/internal/acf"
	"vbrsim/internal/rng"
)

// RaggedPlan is the historical plan representation: one heap-allocated row
// per step, coefficients in natural order phi[k][j-1] = phi_{k,j}.
type RaggedPlan struct {
	n      int
	r      []float64
	phi    [][]float64
	v      []float64
	phiSum []float64
}

// NewRaggedPlan runs the original serial Durbin–Levinson recursion exactly
// as the seed implementation did.
func NewRaggedPlan(model acf.Model, n int) (*RaggedPlan, error) {
	if n <= 0 {
		return nil, errors.New("hosking: non-positive length")
	}
	p := &RaggedPlan{
		n:      n,
		r:      make([]float64, n),
		phi:    make([][]float64, n),
		v:      make([]float64, n),
		phiSum: make([]float64, n),
	}
	for k := range p.r {
		p.r[k] = model.At(k)
	}
	if p.r[0] != 1 {
		return nil, errors.New("hosking: model.At(0) must be 1")
	}
	p.v[0] = 1
	if n == 1 {
		return p, nil
	}
	prev := make([]float64, 0, n)
	for k := 1; k < n; k++ {
		d := p.r[k]
		for j := 1; j < k; j++ {
			d -= prev[j-1] * p.r[k-j]
		}
		phiKK := d / p.v[k-1]
		if math.Abs(phiKK) >= 1 || math.IsNaN(phiKK) {
			return nil, fmt.Errorf("%w: partial correlation %v at lag %d", ErrNotPositiveDefinite, phiKK, k)
		}
		row := make([]float64, k)
		for j := 1; j < k; j++ {
			row[j-1] = prev[j-1] - phiKK*prev[k-1-j]
		}
		row[k-1] = phiKK
		p.phi[k] = row
		p.v[k] = p.v[k-1] * (1 - phiKK*phiKK)
		var s float64
		for _, c := range row {
			s += c
		}
		p.phiSum[k] = s
		prev = row
	}
	return p, nil
}

// Len returns the maximum path length the plan supports.
func (p *RaggedPlan) Len() int { return p.n }

// CondVar returns v_k.
func (p *RaggedPlan) CondVar(k int) float64 { return p.v[k] }

// PhiRowSum returns sum_j phi_{k,j}.
func (p *RaggedPlan) PhiRowSum(k int) float64 {
	if k <= 0 || k >= p.n {
		return 0
	}
	return p.phiSum[k]
}

// PartialCorr returns phi_{k,k}.
func (p *RaggedPlan) PartialCorr(k int) float64 {
	if k <= 0 || k >= p.n {
		return 0
	}
	return p.phi[k][k-1]
}

// Coeff returns phi_{k,j} (1 <= j <= k).
func (p *RaggedPlan) Coeff(k, j int) float64 { return p.phi[k][j-1] }

// CondMean returns the conditional mean of X_k given x[0..k-1], summed in
// the historical term order.
func (p *RaggedPlan) CondMean(k int, x []float64) float64 {
	if k == 0 {
		return 0
	}
	row := p.phi[k]
	var m float64
	for j := 1; j <= k; j++ {
		m += row[j-1] * x[k-j]
	}
	return m
}

// Generate fills out with one sample path.
func (p *RaggedPlan) Generate(r *rng.Source, out []float64) {
	if len(out) > p.n {
		panic("hosking: requested path longer than plan")
	}
	for k := range out {
		m := p.CondMean(k, out[:k])
		out[k] = m + math.Sqrt(p.v[k])*r.Norm()
	}
}

// Path allocates and returns a fresh sample path of length n.
func (p *RaggedPlan) Path(r *rng.Source, n int) []float64 {
	out := make([]float64, n)
	p.Generate(r, out)
	return out
}

// BenchmarkFlatVsRagged compares path generation through the flat
// single-allocation plan layout against the ragged [][]float64 reference
// (bit-identical output, pure memory-layout difference):
//
//	go test ./internal/hosking -run '^$' -bench FlatVsRagged
func BenchmarkFlatVsRagged(b *testing.B) {
	const n = 4096
	model := acf.FGN{H: 0.8}
	flat, err := NewPlan(model, n)
	if err != nil {
		b.Fatal(err)
	}
	ragged, err := NewRaggedPlan(model, n)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name     string
		generate func(*rng.Source, []float64)
	}{{"flat", flat.Generate}, {"ragged", ragged.Generate}} {
		b.Run(bc.name, func(b *testing.B) {
			r := rng.New(1)
			out := make([]float64, n)
			for i := 0; i < b.N; i++ {
				bc.generate(r, out)
			}
		})
	}
}
