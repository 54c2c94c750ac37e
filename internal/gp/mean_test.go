package gp

import (
	"math"
	"testing"
)

// funcMean adapts a closure to the Mean interface for tests.
type funcMean func(x []float64) (float64, float64)

func (m funcMean) MeanVar(x []float64) (float64, float64) { return m(x) }

// A zero prior (mean 0, variance 0) must leave every prediction bitwise
// identical to the nil-mean GP: the prior-off guarantee the search's
// trace goldens lean on reduces to exactly this property.
func TestGPZeroMeanBitIdentical(t *testing.T) {
	x := grid1D(0, 5, 9)
	y := make([]float64, len(x))
	for i, xi := range x {
		y[i] = math.Sin(xi[0]) * 3
	}
	plain := New(NewMatern52(1), 1e-6)
	zeroed := New(NewMatern52(1), 1e-6)
	zeroed.SetMean(funcMean(func([]float64) (float64, float64) { return 0, 0 }))
	if err := plain.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if err := zeroed.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	for q := 0.0; q <= 7; q += 0.37 {
		muA, sA := plain.Predict([]float64{q})
		muB, sB := zeroed.Predict([]float64{q})
		if muA != muB || sA != sB {
			t.Fatalf("zero mean changed prediction at %v: (%v,%v) vs (%v,%v)", q, muA, sA, muB, sB)
		}
	}
}

// SetMean(nil) after a mean was installed must restore the zero-mean
// arithmetic exactly.
func TestGPSetMeanNilRestoresZeroMean(t *testing.T) {
	x := grid1D(0, 4, 7)
	y := []float64{1, 3, 2, 5, 4, 6, 5}
	plain := New(NewMatern52(1), 1e-6)
	if err := plain.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	g := New(NewMatern52(1), 1e-6)
	g.SetMean(funcMean(func(x []float64) (float64, float64) { return 2 * x[0], 0.5 }))
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	g.SetMean(nil)
	for q := -1.0; q <= 6; q += 0.5 {
		muA, sA := plain.Predict([]float64{q})
		muB, sB := g.Predict([]float64{q})
		if muA != muB || sA != sB {
			t.Fatalf("SetMean(nil) left a residue at %v: (%v,%v) vs (%v,%v)", q, muA, sA, muB, sB)
		}
	}
}

// Far from data the posterior must revert toward the prior mean
// function, not toward the global average — the whole point of the
// fleet prior: an unprofiled scale-out inherits the fleet's curve shape
// instead of a flat constant.
func TestGPMeanRevertsToPriorFarAway(t *testing.T) {
	prior := funcMean(func(x []float64) (float64, float64) { return 2 * x[0], 0 })
	x := grid1D(0, 1, 4)
	y := make([]float64, len(x))
	for i, xi := range x {
		y[i] = 2 * xi[0] // data agrees with the prior exactly
	}
	g := New(NewSE(1), 1e-6)
	g.SetMean(prior)
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	mu, _ := g.Predict([]float64{50})
	if math.Abs(mu-100) > 1e-6 {
		t.Fatalf("mu(far) = %v, want prior mean 100", mu)
	}
}

// The prior variance inflates the posterior spread in quadrature and
// only when positive.
func TestGPMeanVarianceInflation(t *testing.T) {
	x := grid1D(0, 1, 4)
	y := []float64{1, 2, 3, 4}
	base := New(NewSE(1), 1e-6)
	if err := base.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	const pv = 0.09
	g := New(NewSE(1), 1e-6)
	g.SetMean(funcMean(func([]float64) (float64, float64) { return 0, pv }))
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	q := []float64{3}
	_, s0 := base.Predict(q)
	_, s1 := g.Predict(q)
	want := math.Sqrt(s0*s0 + pv)
	if math.Abs(s1-want) > 1e-12 {
		t.Fatalf("sigma = %v, want sqrt(%v²+%v) = %v", s1, s0, pv, want)
	}
}

// SetMean after Fit must re-condition in place: predictions match a GP
// that had the mean installed before fitting the same data.
func TestGPSetMeanAfterFit(t *testing.T) {
	prior := funcMean(func(x []float64) (float64, float64) { return x[0] * x[0], 0.2 })
	x := grid1D(0, 3, 6)
	y := make([]float64, len(x))
	for i, xi := range x {
		y[i] = xi[0]*xi[0] + math.Sin(xi[0])
	}
	before := New(NewMatern52(1), 1e-6)
	before.SetMean(prior)
	if err := before.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	after := New(NewMatern52(1), 1e-6)
	if err := after.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	after.SetMean(prior)
	for q := 0.0; q <= 5; q += 0.7 {
		muA, sA := before.Predict([]float64{q})
		muB, sB := after.Predict([]float64{q})
		if muA != muB || sA != sB {
			t.Fatalf("SetMean ordering changed prediction at %v: (%v,%v) vs (%v,%v)", q, muA, sA, muB, sB)
		}
	}
}

// PredictMatrix with a mean installed must stay bit-identical to the
// PredictInto loop — the batched acquisition sweep and the reference
// replay both cross this path.
func TestGPMeanPredictMatrixMatchesLoop(t *testing.T) {
	prior := funcMean(func(x []float64) (float64, float64) { return 0.5*x[0] - 0.1*x[1], 0.3 })
	var x [][]float64
	var y []float64
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			x = append(x, []float64{float64(i), float64(j)})
			y = append(y, 0.5*float64(i)-0.1*float64(j)+math.Cos(float64(i*j)))
		}
	}
	g := New(NewMatern52(2), 1e-6)
	g.SetMean(prior)
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	queries := [][]float64{{0.5, 0.5}, {2.2, 1.7}, {5, 5}, {1, 0}}
	qs := make([]float64, 0, len(queries)*2)
	for _, q := range queries {
		qs = append(qs, q...)
	}
	mu := make([]float64, len(queries))
	sigma := make([]float64, len(queries))
	means := make([]MeanAt, len(queries))
	for i, q := range queries {
		means[i].Mu, means[i].Var = prior.MeanVar(q)
	}
	var s PredictMatrixScratch
	g.PredictMatrix(qs, 2, means, mu, sigma, &s)
	var ps PredictScratch
	for i, q := range queries {
		wantMu, wantS := g.PredictInto(q, &ps)
		if mu[i] != wantMu || sigma[i] != wantS {
			t.Fatalf("query %d: PredictMatrix (%v,%v) != PredictInto (%v,%v)", i, mu[i], sigma[i], wantMu, wantS)
		}
		if pm, ps := g.Predict(q); pm != wantMu || ps != wantS {
			t.Fatalf("query %d: Predict (%v,%v) != PredictInto (%v,%v)", i, pm, ps, wantMu, wantS)
		}
	}
}

// The prior column must match the model: a GP with a mean given no
// column, a mean-free GP given one, or a column shorter than the query
// block can only come from a caller bug, and each panics rather than
// return a posterior that silently drops or invents the prior.
func TestGPPredictMatrixColumnMismatchPanics(t *testing.T) {
	x := [][]float64{{0}, {1}, {2}}
	y := []float64{0, 1, 0}
	plain := New(NewMatern52(1), 1e-6)
	withMean := New(NewMatern52(1), 1e-6)
	withMean.SetMean(funcMean(func(x []float64) (float64, float64) { return x[0], 0.1 }))
	for _, g := range []*GP{plain, withMean} {
		if err := g.Fit(x, y); err != nil {
			t.Fatal(err)
		}
	}
	qs := []float64{0.5, 1.5}
	mu, sigma := make([]float64, 2), make([]float64, 2)
	for name, call := range map[string]func(){
		"mean without column": func() { withMean.PredictMatrix(qs, 1, nil, mu, sigma, &PredictMatrixScratch{}) },
		"column without mean": func() { plain.PredictMatrix(qs, 1, make([]MeanAt, 2), mu, sigma, &PredictMatrixScratch{}) },
		"short column":        func() { withMean.PredictMatrix(qs, 1, make([]MeanAt, 1), mu, sigma, &PredictMatrixScratch{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: PredictMatrix did not panic", name)
				}
			}()
			call()
		}()
	}
}

// With a prior that matches the truth, two observations are enough for
// accurate interpolation everywhere the prior covers — the transfer
// -learning payoff in miniature.
func TestGPGoodPriorBeatsColdStart(t *testing.T) {
	truth := func(x float64) float64 { return 5 + 2*math.Log2(1+x) }
	prior := funcMean(func(x []float64) (float64, float64) { return truth(x[0]), 0.5 })
	x := [][]float64{{0}, {7}}
	y := []float64{truth(0), truth(7)}

	cold := New(NewMatern52(1), 1e-6)
	if err := cold.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	warm := New(NewMatern52(1), 1e-6)
	warm.SetMean(prior)
	if err := warm.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	var coldErr, warmErr float64
	for q := 1.0; q <= 6; q++ {
		mc, _ := cold.Predict([]float64{q})
		mw, _ := warm.Predict([]float64{q})
		coldErr += math.Abs(mc - truth(q))
		warmErr += math.Abs(mw - truth(q))
	}
	if warmErr >= coldErr {
		t.Fatalf("matching prior must reduce interpolation error: warm %v vs cold %v", warmErr, coldErr)
	}
	if warmErr > 1e-6 {
		t.Fatalf("exact prior must interpolate exactly, err %v", warmErr)
	}
}
