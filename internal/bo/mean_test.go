package bo

import (
	"math"
	"math/rand"
	"testing"

	"mlcd/internal/cloud"
	"mlcd/internal/gp"
	"mlcd/internal/rngtape"
)

type constMean struct{ mu, v float64 }

func (m constMean) MeanVar([]float64) (float64, float64) { return m.mu, m.v }

func meanTestDeployments(n int) []cloud.Deployment {
	types := cloud.DefaultCatalog().Types()
	out := make([]cloud.Deployment, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, cloud.Deployment{Type: types[i%len(types)], Nodes: 1 + i})
	}
	return out
}

// A surrogate with a zero prior must predict bitwise identically to one
// without any mean — through observations and hyperparameter refits.
func TestSurrogateZeroMeanBitIdentical(t *testing.T) {
	plain := NewSurrogate(gp.NewMatern52(5), rngtape.New(3))
	zeroed := NewSurrogate(gp.NewMatern52(5), rngtape.New(3))
	zeroed.SetMean(constMean{})
	ds := meanTestDeployments(6)
	for i, d := range ds {
		y := math.Log(float64(100 + 37*i))
		if err := plain.Observe(d, y); err != nil {
			t.Fatal(err)
		}
		if err := zeroed.Observe(d, y); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range meanTestDeployments(10) {
		muA, sA := plain.Predict(q)
		muB, sB := zeroed.Predict(q)
		if muA != muB || sA != sB {
			t.Fatalf("zero mean changed %v: (%v,%v) vs (%v,%v)", q, muA, sA, muB, sB)
		}
	}
}

// SetMean before the first observation must survive the lazy model
// creation, and the prior must shift predictions by its mean.
func TestSurrogateSetMeanBeforeObserve(t *testing.T) {
	s := NewSurrogate(gp.NewMatern52(5), rand.New(rand.NewSource(1)))
	s.SetMean(constMean{mu: 4, v: 0.25})
	d := meanTestDeployments(1)[0]
	if err := s.Observe(d, 4.5); err != nil {
		t.Fatal(err)
	}
	// Far from the single observation the posterior reverts toward
	// prior mean + residual mean = 4 + 0.5.
	far := cloud.Deployment{Type: cloud.DefaultCatalog().Types()[0], Nodes: 4096}
	mu, sigma := s.Predict(far)
	if math.Abs(mu-4.5) > 0.5 {
		t.Fatalf("mu(far) = %v, want ≈4.5", mu)
	}
	if sigma*sigma < 0.25 {
		t.Fatalf("sigma² = %v must include the prior variance 0.25", sigma*sigma)
	}
}

// The multi-fidelity wrapper must carry the mean through its mixed-mode
// rebuild — the serving model after a low-fidelity observation still
// answers with the prior installed.
func TestMultiFidelityRebuildKeepsMean(t *testing.T) {
	inner := NewSurrogate(gp.NewMatern52(5), rand.New(rand.NewSource(2)))
	m := NewMultiFidelitySurrogate(inner)
	m.SetMean(constMean{mu: 3, v: 1})
	ds := meanTestDeployments(4)
	for i, d := range ds[:3] {
		if err := m.Observe(d, 3.2+0.1*float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// A low-fidelity reading flips mixed mode and rebuilds.
	if _, err := m.ObserveAt(ds[3], 2.9, 0.5); err != nil {
		t.Fatal(err)
	}
	if !m.mixed {
		t.Fatal("expected mixed mode after a low-fidelity observation")
	}
	if m.cur.mean == nil {
		t.Fatal("rebuild dropped the prior mean")
	}
	far := cloud.Deployment{Type: cloud.DefaultCatalog().Types()[0], Nodes: 4096}
	_, sigma := m.Predict(far)
	if sigma*sigma < 1 {
		t.Fatalf("sigma² = %v must include the prior variance 1", sigma*sigma)
	}
}
