package gp

import (
	"math/rand"
	"testing"
)

// benchGP returns a GP conditioned on n random 5-D observations — the
// surrogate's dimensionality — ready for hyperparameter fitting.
func benchGP(n int) (*GP, error) {
	rng := rand.New(rand.NewSource(9))
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = make([]float64, 5)
		for d := range xs[i] {
			xs[i][d] = rng.NormFloat64() * 2
		}
		ys[i] = rng.NormFloat64()
	}
	g := New(NewMatern52(5), 1e-4)
	return g, g.Fit(xs, ys)
}

// BenchmarkFitMLE times one full hyperparameter refit at the surrogate's
// in-search configuration (3 starts, fitted noise, 80 iterations) — the
// dominant cost of every BO step. The objective evaluations inside ride
// the distance cache and the allocation-free Nelder–Mead.
func BenchmarkFitMLE(b *testing.B) {
	g, err := benchGP(24)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(7))
		if err := g.FitMLE(rng); err != nil {
			b.Fatal(err)
		}
	}
}
