package bo

import (
	"math"
	"math/rand"
	"testing"

	"mlcd/internal/cloud"
	"mlcd/internal/gp"
	"mlcd/internal/obs"
)

// poisoned returns d on a copy of its instance type with an infinite
// network bandwidth. Its feature vector holds +Inf, so every Matérn
// kernel value that touches it is NaN (Inf−Inf on the diagonal, Inf·0
// off it) and conditioning on it fails at every jitter level.
func poisoned(d cloud.Deployment) cloud.Deployment {
	d.Type.NetworkGbps = math.Inf(1)
	return d
}

// newSurrogate returns the Matérn 5/2 surrogate the tests below condition.
func newSurrogate() *Surrogate {
	return NewSurrogate(gp.NewMatern52(5), rand.New(rand.NewSource(1)))
}

// queryFeatures packs the features of n deployments at 7 nodes — none of
// them a benchDeployments point — row-major for PredictMatrix.
func queryFeatures(n int) (feats []float64, dim int) {
	types := cloud.DefaultCatalog().Types()
	for i := 0; i < n; i++ {
		f := cloud.Features(cloud.Deployment{Type: types[i%len(types)], Nodes: 7})
		dim = len(f)
		feats = append(feats, f...)
	}
	return feats, dim
}

// predictAll returns the posterior at the query block, as raw bits so
// comparisons are exact.
func predictAll(s *Surrogate, feats []float64, dim int) []uint64 {
	m := len(feats) / dim
	mu, sigma := make([]float64, m), make([]float64, m)
	s.PredictMatrix(feats, dim, nil, mu, sigma, &gp.PredictMatrixScratch{})
	out := make([]uint64, 0, 2*m)
	for c := range mu {
		out = append(out, math.Float64bits(mu[c]), math.Float64bits(sigma[c]))
	}
	return out
}

func assertSameBits(t *testing.T, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("posterior has %d values, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("posterior value %d changed: %v, want %v", i, math.Float64frombits(got[i]), math.Float64frombits(want[i]))
		}
	}
}

// TestObserveFailureKeepsPosterior: an observation the GP cannot
// condition on is not absorbed. The surrogate keeps its length and its
// posterior bit for bit, and goes on absorbing healthy observations.
func TestObserveFailureKeepsPosterior(t *testing.T) {
	ds := benchDeployments(6)
	ds[4] = poisoned(ds[4])
	s := newSurrogate()
	for i, d := range ds[:4] {
		if err := s.Observe(d, math.Sin(float64(i))); err != nil {
			t.Fatalf("observation %d: %v", i, err)
		}
	}
	feats, dim := queryFeatures(6)
	before := predictAll(s, feats, dim)

	if err := s.Observe(ds[4], 1); err == nil {
		t.Fatal("conditioning on a NaN kernel row must fail")
	}
	if s.Len() != 4 {
		t.Fatalf("Len() = %d after a failed Observe, want 4", s.Len())
	}
	assertSameBits(t, predictAll(s, feats, dim), before)
	if _, sigma := s.Predict(ds[0]); math.IsNaN(sigma) {
		t.Fatal("Predict after a failed Observe returned NaN")
	}

	if err := s.Observe(ds[5], 0.5); err != nil {
		t.Fatalf("healthy observation after a failed one: %v", err)
	}
	if s.Len() != 5 {
		t.Fatalf("Len() = %d, want 5", s.Len())
	}
}

// TestObserveAllSkipsFailedPairs: a batch conditions every pair it can,
// reports exactly the one it cannot, refits once, and ends bit-identical
// to the same batch without the failing pair.
func TestObserveAllSkipsFailedPairs(t *testing.T) {
	ds := benchDeployments(8)
	ys := make([]float64, len(ds))
	for i := range ys {
		ys[i] = math.Sin(float64(i) * 0.7)
	}
	const bad = 3
	ds[bad] = poisoned(ds[bad])
	reg := obs.NewRegistry()
	s := newSurrogate()
	s.Perf = obs.NewPerf(reg)
	skipped, err := s.ObserveAll(ds, ys)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 1 || skipped[0] != bad {
		t.Fatalf("skipped = %v, want [%d]", skipped, bad)
	}
	if s.Len() != len(ds)-1 {
		t.Fatalf("Len() = %d, want %d", s.Len(), len(ds)-1)
	}
	if n := s.Perf.GPRefactorSeconds.Count(); n != 1 {
		t.Fatalf("batch recorded %d gp_refactor_seconds samples, want 1", n)
	}

	ref := newSurrogate()
	keepD := append(append([]cloud.Deployment(nil), ds[:bad]...), ds[bad+1:]...)
	keepY := append(append([]float64(nil), ys[:bad]...), ys[bad+1:]...)
	if skipped, err := ref.ObserveAll(keepD, keepY); err != nil || len(skipped) != 0 {
		t.Fatalf("reference batch: skipped %v, err %v", skipped, err)
	}
	feats, dim := queryFeatures(6)
	assertSameBits(t, predictAll(s, feats, dim), predictAll(ref, feats, dim))

	// A batch that absorbs nothing neither refits nor records a sample.
	if skipped, err := s.ObserveAll(ds[bad:bad+1], ys[bad:bad+1]); err != nil || len(skipped) != 1 {
		t.Fatalf("all-failing batch: skipped %v, err %v", skipped, err)
	}
	if n := s.Perf.GPRefactorSeconds.Count(); n != 1 {
		t.Fatalf("all-failing batch recorded a sample: count %d, want 1", n)
	}
}

// TestMultiFidelityLedgerSkipsFailedPairs: pairs the serving model could
// not condition stay out of the ledger, so the rebuild that the first
// low-fidelity observation triggers conditions everything it holds.
func TestMultiFidelityLedgerSkipsFailedPairs(t *testing.T) {
	ds := benchDeployments(7)
	const bad = 2
	ds[bad] = poisoned(ds[bad])
	m := NewMultiFidelitySurrogate(newSurrogate())
	ys := []float64{0.1, 0.4, 0.9, 0.3, 0.7}
	skipped, err := m.ObserveAll(ds[:5], ys)
	if err != nil || len(skipped) != 1 || skipped[0] != bad {
		t.Fatalf("ObserveAll: skipped %v, err %v", skipped, err)
	}
	if err := m.Observe(ds[bad], 0.5); err == nil {
		t.Fatal("Observe of the poisoned deployment must fail")
	}
	if err := m.Observe(ds[5], 0.2); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ObserveAt(ds[6], 0.6, 0.25); err != nil {
		t.Fatalf("rebuild after skipped pairs: %v", err)
	}
	if m.Len() != 6 {
		t.Fatalf("Len() = %d after the rebuild, want 6", m.Len())
	}
}
