package gp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func grid1D(lo, hi float64, n int) [][]float64 {
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = []float64{lo + (hi-lo)*float64(i)/float64(n-1)}
	}
	return xs
}

func TestGPInterpolatesTrainingPoints(t *testing.T) {
	x := grid1D(0, 4, 5)
	y := []float64{0, 1, 4, 9, 16}
	g := New(NewMatern52(1), 1e-8)
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		mu, sigma := g.Predict(x[i])
		if math.Abs(mu-y[i]) > 1e-3 {
			t.Errorf("mu(%v) = %v, want %v", x[i], mu, y[i])
		}
		if sigma > 0.05 {
			t.Errorf("sigma(%v) = %v, want ≈0 at training point", x[i], sigma)
		}
	}
}

func TestGPUncertaintyGrowsAwayFromData(t *testing.T) {
	x := grid1D(0, 1, 4)
	y := []float64{1, 2, 3, 4}
	g := New(NewSE(1), 1e-6)
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	_, sNear := g.Predict([]float64{0.5})
	_, sFar := g.Predict([]float64{5})
	if sFar <= sNear {
		t.Fatalf("sigma far (%v) must exceed sigma near (%v)", sFar, sNear)
	}
}

func TestGPRevertsToPriorFarAway(t *testing.T) {
	x := grid1D(0, 1, 3)
	y := []float64{10, 12, 14}
	g := New(NewSE(1), 1e-6)
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	mu, _ := g.Predict([]float64{100})
	// Far from data the posterior mean returns to the target mean (12).
	if math.Abs(mu-12) > 1e-6 {
		t.Fatalf("mu(far) = %v, want 12", mu)
	}
}

func TestGPConstantTargets(t *testing.T) {
	x := grid1D(0, 1, 3)
	y := []float64{5, 5, 5}
	g := New(NewMatern52(1), 1e-6)
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	mu, sigma := g.Predict([]float64{0.5})
	if math.Abs(mu-5) > 1e-6 {
		t.Fatalf("mu = %v, want 5", mu)
	}
	if math.IsNaN(sigma) {
		t.Fatal("sigma must not be NaN for constant targets")
	}
}

func TestGPSingleObservation(t *testing.T) {
	g := New(NewMatern52(1), 1e-6)
	if err := g.Fit([][]float64{{2}}, []float64{7}); err != nil {
		t.Fatal(err)
	}
	mu, _ := g.Predict([]float64{2})
	if math.Abs(mu-7) > 1e-6 {
		t.Fatalf("mu = %v, want 7", mu)
	}
}

func TestGPPanicsWithoutFit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(NewSE(1), 1e-6).Predict([]float64{0})
}

func TestGPFitPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(NewSE(1), 1e-6).Fit(grid1D(0, 1, 3), []float64{1, 2})
}

func TestGPFitPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(NewSE(1), 1e-6).Fit(nil, nil)
}

func TestGPLogMarginalLikelihoodPrefersGoodFit(t *testing.T) {
	// Smooth data: a well-chosen lengthscale must beat a terrible one.
	x := grid1D(0, 10, 15)
	y := make([]float64, 15)
	for i, xi := range x {
		y[i] = math.Sin(xi[0])
	}
	good := New(NewSE(1), 1e-4)
	kp := good.Kernel().Params()
	kp[1] = math.Log(1.5)
	good.Kernel().SetParams(kp)
	if err := good.Fit(x, y); err != nil {
		t.Fatal(err)
	}

	bad := New(NewSE(1), 1e-4)
	bp := bad.Kernel().Params()
	bp[1] = math.Log(0.01) // absurdly short lengthscale
	bad.Kernel().SetParams(bp)
	if err := bad.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if good.LogMarginalLikelihood() <= bad.LogMarginalLikelihood() {
		t.Fatalf("LML(good)=%v must exceed LML(bad)=%v",
			good.LogMarginalLikelihood(), bad.LogMarginalLikelihood())
	}
}

func TestGPFitMLEImprovesLikelihood(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := grid1D(0, 10, 20)
	y := make([]float64, len(x))
	for i, xi := range x {
		y[i] = math.Sin(xi[0]) + 0.05*rng.NormFloat64()
	}
	g := New(NewMatern52(1), 1e-4)
	// Start from a deliberately bad lengthscale.
	p := g.Kernel().Params()
	p[1] = math.Log(20)
	g.Kernel().SetParams(p)
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	before := g.LogMarginalLikelihood()
	if err := g.FitMLE(rng, FitMLEOpts{Starts: 3, FitNoise: true}); err != nil {
		t.Fatal(err)
	}
	after := g.LogMarginalLikelihood()
	if after < before {
		t.Fatalf("FitMLE must not reduce likelihood: %v → %v", before, after)
	}
	// The fitted model must actually predict the function.
	mu, _ := g.Predict([]float64{4.5})
	if math.Abs(mu-math.Sin(4.5)) > 0.2 {
		t.Fatalf("prediction after MLE = %v, want ≈%v", mu, math.Sin(4.5))
	}
}

func TestGPPredict2D(t *testing.T) {
	// f(x) = x0 + 2·x1 over a small 2-D grid.
	var x [][]float64
	var y []float64
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			x = append(x, []float64{float64(i), float64(j)})
			y = append(y, float64(i)+2*float64(j))
		}
	}
	g := New(NewMatern52(2), 1e-6)
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	mu, _ := g.Predict([]float64{1.5, 2.5})
	if math.Abs(mu-6.5) > 0.5 {
		t.Fatalf("mu = %v, want ≈6.5", mu)
	}
}

func TestGPNoiseDefaulting(t *testing.T) {
	g := New(NewSE(1), -1)
	if g.Noise() <= 0 {
		t.Fatal("negative noise must be replaced with a positive default")
	}
}

// Property: posterior sigma is non-negative and finite everywhere.
func TestQuickGPSigmaNonNegative(t *testing.T) {
	f := func(seed int64, q float64) bool {
		if math.IsNaN(q) || math.IsInf(q, 0) {
			return true
		}
		q = math.Mod(q, 20)
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(8) + 2
		x := make([][]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = []float64{rng.Float64() * 10}
			y[i] = rng.NormFloat64() * 5
		}
		g := New(NewMatern52(1), 1e-6)
		if err := g.Fit(x, y); err != nil {
			return true // duplicate points can legitimately fail; not under test
		}
		mu, sigma := g.Predict([]float64{q})
		return sigma >= 0 && !math.IsNaN(mu) && !math.IsNaN(sigma) && !math.IsInf(mu, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: predictions are invariant under shifting all targets by a
// constant (the shift reappears in the mean, sigma unchanged).
func TestQuickGPShiftEquivariance(t *testing.T) {
	f := func(seed int64, shiftRaw float64) bool {
		if math.IsNaN(shiftRaw) || math.IsInf(shiftRaw, 0) {
			return true
		}
		shift := math.Mod(shiftRaw, 1000)
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(6) + 3
		x := make([][]float64, n)
		y := make([]float64, n)
		y2 := make([]float64, n)
		for i := range x {
			x[i] = []float64{float64(i) + rng.Float64()*0.5}
			y[i] = rng.NormFloat64() * 3
			y2[i] = y[i] + shift
		}
		a := New(NewMatern52(1), 1e-6)
		b := New(NewMatern52(1), 1e-6)
		if err := a.Fit(x, y); err != nil {
			return true
		}
		if err := b.Fit(x, y2); err != nil {
			return true
		}
		at := []float64{rng.Float64() * float64(n)}
		muA, sA := a.Predict(at)
		muB, sB := b.Predict(at)
		return math.Abs((muB-muA)-shift) < 1e-6*(1+math.Abs(shift)) && math.Abs(sA-sB) < 1e-8*(1+sA)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
