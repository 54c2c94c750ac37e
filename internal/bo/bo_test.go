package bo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mlcd/internal/cloud"
	"mlcd/internal/gp"
)

func TestEIKnownValues(t *testing.T) {
	e := EI{}
	// mu = best, sigma = 1: EI = φ(0) = 0.3989…
	if got := (EI{}).Score(5, 1, 5); math.Abs(got-0.3989422804014327) > 1e-12 {
		t.Fatalf("EI = %v", got)
	}
	// sigma = 0: EI is the plain improvement when positive, else 0.
	if got := e.Score(7, 0, 5); got != 2 {
		t.Fatalf("EI(σ=0, improving) = %v", got)
	}
	if got := e.Score(3, 0, 5); got != 0 {
		t.Fatalf("EI(σ=0, worse) = %v", got)
	}
}

func TestEIMonotoneInMean(t *testing.T) {
	e := EI{}
	prev := -1.0
	for mu := 0.0; mu <= 10; mu += 0.5 {
		v := e.Score(mu, 1, 5)
		if v < prev {
			t.Fatalf("EI must be non-decreasing in μ (at μ=%v)", mu)
		}
		prev = v
	}
}

func TestEIXiPenalizesExploitation(t *testing.T) {
	plain := (EI{}).Score(6, 1, 5)
	shifted := (EI{Xi: 0.5}).Score(6, 1, 5)
	if shifted >= plain {
		t.Fatal("ξ > 0 must reduce EI")
	}
}

func TestUCB(t *testing.T) {
	if got := (UCB{Beta: 2}).Score(1, 3, 0); got != 7 {
		t.Fatalf("UCB = %v, want 7", got)
	}
	// Default beta kicks in at ≤0.
	if got := (UCB{}).Score(1, 3, 0); got != 7 {
		t.Fatalf("UCB default = %v, want 7", got)
	}
}

func TestPOI(t *testing.T) {
	p := POI{}
	if got := p.Score(5, 1, 5); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("POI at μ=y* = %v, want 0.5", got)
	}
	if got := p.Score(7, 0, 5); got != 1 {
		t.Fatalf("POI(σ=0, better) = %v", got)
	}
	if got := p.Score(3, 0, 5); got != 0 {
		t.Fatalf("POI(σ=0, worse) = %v", got)
	}
}

func TestAcquisitionNames(t *testing.T) {
	if (EI{}).Name() != "ei" || (POI{}).Name() != "poi" || (UCB{Beta: 2}).Name() == "" {
		t.Fatal("acquisition names wrong")
	}
}

func deployment(n int) cloud.Deployment {
	return cloud.NewDeployment(cloud.DefaultCatalog().MustLookup("c5.4xlarge"), n)
}

func TestSurrogateLearnsScaleOutCurve(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewSurrogate(gp.NewMatern52(5), rng)
	// Concave synthetic curve over node count.
	curve := func(n int) float64 {
		x := float64(n)
		return 200 * x / (10 + x + 0.02*x*x)
	}
	for _, n := range []int{1, 5, 10, 20, 40, 80} {
		if err := s.Observe(deployment(n), curve(n)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 6 {
		t.Fatalf("Len = %d", s.Len())
	}
	mu, sigma := s.Predict(deployment(30))
	if math.Abs(mu-curve(30)) > 25 {
		t.Fatalf("mu(30) = %v, want ≈%v", mu, curve(30))
	}
	if sigma < 0 {
		t.Fatalf("sigma = %v", sigma)
	}
	// Uncertainty at an observed point must be below a distant one.
	_, sObserved := s.Predict(deployment(20))
	_, sFar := s.Predict(cloud.NewDeployment(cloud.DefaultCatalog().MustLookup("p3.16xlarge"), 50))
	if sFar <= sObserved {
		t.Fatalf("sigma far (%v) must exceed sigma at data (%v)", sFar, sObserved)
	}
}

func TestSurrogateBestObserved(t *testing.T) {
	s := NewSurrogate(gp.NewMatern52(5), rand.New(rand.NewSource(1)))
	_ = s.Observe(deployment(1), 10)
	_ = s.Observe(deployment(2), 30)
	_ = s.Observe(deployment(3), 20)
	if got := s.BestObserved(); got != 30 {
		t.Fatalf("BestObserved = %v", got)
	}
}

func TestSurrogatePanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("nil rng", func() { NewSurrogate(gp.NewMatern52(5), nil) })
	s := NewSurrogate(gp.NewMatern52(5), rand.New(rand.NewSource(1)))
	mustPanic("predict before observe", func() { s.Predict(deployment(1)) })
	mustPanic("best before observe", func() { s.BestObserved() })
}

func TestSurrogateNilKernelDefaults(t *testing.T) {
	s := NewSurrogate(nil, rand.New(rand.NewSource(1)))
	if err := s.Observe(deployment(1), 1); err != nil {
		t.Fatal(err)
	}
}

// Property: EI is always non-negative and finite for finite inputs.
func TestQuickEINonNegative(t *testing.T) {
	e := EI{}
	f := func(mu, sigma, best float64) bool {
		if math.IsNaN(mu) || math.IsNaN(sigma) || math.IsNaN(best) ||
			math.IsInf(mu, 0) || math.IsInf(sigma, 0) || math.IsInf(best, 0) {
			return true
		}
		mu = math.Mod(mu, 1e6)
		best = math.Mod(best, 1e6)
		sigma = math.Abs(math.Mod(sigma, 1e6))
		v := e.Score(mu, sigma, best)
		return v >= 0 && !math.IsNaN(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: POI is a probability.
func TestQuickPOIRange(t *testing.T) {
	p := POI{}
	f := func(mu, sigma, best float64) bool {
		if math.IsNaN(mu) || math.IsNaN(sigma) || math.IsNaN(best) {
			return true
		}
		sigma = math.Abs(sigma)
		v := p.Score(mu, sigma, best)
		return v >= 0 && v <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
