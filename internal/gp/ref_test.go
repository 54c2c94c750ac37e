package gp

import (
	"math"

	"mlcd/internal/mat"
)

// PredictInto below is the per-query posterior that PredictMatrix
// replaced, kept as the reference the batch path is pinned to
// (TestPredictMatrixMatchesPredictInto, FuzzPredictMatrix and the mean
// tests): one Eval per training point, one mat.Dot for the mean, one
// ForwardSolveInto and one mat.Dot for the variance.

// PredictScratch holds the per-caller buffers for PredictInto. A zero
// value is ready to use; buffers grow on demand and are reused across
// calls.
type PredictScratch struct {
	ks, v []float64
}

func (s *PredictScratch) resize(n int) {
	if cap(s.ks) < n {
		s.ks = make([]float64, n)
		s.v = make([]float64, n)
	}
	s.ks = s.ks[:n]
	s.v = s.v[:n]
}

// PredictInto returns the posterior mean and standard deviation at x, in
// the original target units, using caller-provided scratch buffers.
func (g *GP) PredictInto(x []float64, s *PredictScratch) (mu, sigma float64) {
	if g.chol == nil {
		panic(ErrNoData)
	}
	n := len(g.x)
	s.resize(n)
	for i := range g.x {
		s.ks[i] = g.kernel.Eval(g.x[i], x)
	}
	muStd := mat.Dot(s.ks, g.alpha)
	// var = k(x,x) − ksᵀ (K+σ²I)⁻¹ ks, computed via the forward solve.
	g.chol.ForwardSolveInto(s.v, s.ks)
	variance := g.kernel.Eval(x, x) - mat.Dot(s.v, s.v)
	if variance < 0 {
		variance = 0
	}
	mu = muStd*g.yScale + g.yMean
	sigma = math.Sqrt(variance) * g.yScale
	if g.mean != nil {
		pm, pv := g.mean.MeanVar(x)
		mu += pm
		// The pv==0 gate matters for bit-identity: Sqrt(sigma²) is not
		// guaranteed to reproduce sigma, so a confident prior must not
		// launder the posterior spread through a square/sqrt round trip.
		if pv > 0 {
			sigma = math.Sqrt(sigma*sigma + pv)
		}
	}
	return mu, sigma
}
