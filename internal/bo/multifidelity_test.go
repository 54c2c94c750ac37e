package bo

import (
	"math"
	"math/rand"
	"testing"

	"mlcd/internal/cloud"
	"mlcd/internal/gp"
	"mlcd/internal/obs"
)

func mfDeployment(typeName string, n int) cloud.Deployment {
	return cloud.NewDeployment(cloud.DefaultCatalog().MustLookup(typeName), n)
}

// TestMultiFidelityAllFullBitIdentical is the surrogate-layer half of
// the f=1 byte-identity property: while every observation is full
// fidelity, the wrapper delegates verbatim to a plain Surrogate — the
// same kernel, the same rng stream, bitwise-identical predictions.
func TestMultiFidelityAllFullBitIdentical(t *testing.T) {
	plain := NewSurrogate(gp.NewMatern52(5), rand.New(rand.NewSource(42)))
	multi := NewMultiFidelitySurrogate(
		NewSurrogate(gp.NewMatern52(5), rand.New(rand.NewSource(42))))

	obsSet := []struct {
		d cloud.Deployment
		y float64
	}{
		{mfDeployment("c5.xlarge", 1), 1.2},
		{mfDeployment("c5.xlarge", 4), 2.9},
		{mfDeployment("c5.4xlarge", 2), 3.4},
		{mfDeployment("p3.2xlarge", 1), 4.1},
		{mfDeployment("c5.xlarge", 8), 3.3},
	}
	for _, o := range obsSet {
		if err := plain.Observe(o.d, o.y); err != nil {
			t.Fatal(err)
		}
		up, err := multi.ObserveAt(o.d, o.y, 1)
		if err != nil {
			t.Fatal(err)
		}
		if up != nil {
			t.Fatalf("full-only stream produced a promotion: %+v", up)
		}
		// Interleave queries: Predict after every observation, so any
		// divergence in the rng stream or fit cadence surfaces.
		for _, q := range []cloud.Deployment{mfDeployment("c5.xlarge", 6), mfDeployment("p3.2xlarge", 3)} {
			pm, ps := plain.Predict(q)
			mm, ms := multi.Predict(q)
			if pm != mm || ps != ms {
				t.Fatalf("after %d obs at %s: plain (%v, %v) != multi (%v, %v)",
					plain.Len(), q.Key(), pm, ps, mm, ms)
			}
		}
	}
	if plain.BestObserved() != multi.BestObserved() {
		t.Fatalf("BestObserved diverged: %v vs %v", plain.BestObserved(), multi.BestObserved())
	}
	if plain.Len() != multi.Len() {
		t.Fatalf("Len diverged: %d vs %d", plain.Len(), multi.Len())
	}
	mu := make([]float64, 2)
	sigma := make([]float64, 2)
	mu2 := make([]float64, 2)
	sigma2 := make([]float64, 2)
	var feats []float64
	for _, d := range []cloud.Deployment{mfDeployment("c5.4xlarge", 5), mfDeployment("c5.xlarge", 2)} {
		feats = append(feats, cloud.Features(d)...)
	}
	dim := len(feats) / len(mu)
	var s1, s2 gp.PredictMatrixScratch
	plain.PredictMatrix(feats, dim, nil, mu, sigma, &s1)
	multi.PredictMatrix(feats, dim, nil, mu2, sigma2, &s2)
	for i := range mu {
		if mu[i] != mu2[i] || sigma[i] != sigma2[i] {
			t.Fatalf("PredictMatrix diverged at %d: (%v, %v) vs (%v, %v)", i, mu[i], sigma[i], mu2[i], sigma2[i])
		}
	}
}

// pendingFidelity reports the low fidelity of d's latest ledger entry,
// or false if d is unmeasured or confirmed in full.
func pendingFidelity(m *MultiFidelitySurrogate, d cloud.Deployment) (float64, bool) {
	if i, ok := m.idxByDep[d.Key()]; ok && m.fs[i] < 1 {
		return m.fs[i], true
	}
	return 0, false
}

// TestMultiFidelityCorrection: a low reading enters gap-corrected —
// the serving model sees yLow + β̂·(1−f), not the biased raw value —
// and the ledger flags the pending entry.
func TestMultiFidelityCorrection(t *testing.T) {
	m := NewMultiFidelitySurrogate(
		NewSurrogate(gp.NewMatern52(5), rand.New(rand.NewSource(7))))
	d := mfDeployment("c5.xlarge", 4)
	up, err := m.ObserveAt(d, 2.0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if up != nil {
		t.Fatal("first low observation cannot be a promotion")
	}
	if f, ok := pendingFidelity(m, d); !ok || f != 0.5 {
		t.Fatalf("pending fidelity = (%v, %v), want (0.5, true)", f, ok)
	}
	// Best observed reflects the corrected value, not the biased one.
	if got, want := m.BestObserved(), 2.0+gp.DefaultPriorBeta*0.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("BestObserved = %v, want corrected %v", got, want)
	}
}

// TestMultiFidelityPromotion: re-measuring a pending low in full
// replaces the guess with truth, emits a GapUpdate with the exact
// observed gap, and teaches the regressor.
func TestMultiFidelityPromotion(t *testing.T) {
	m := NewMultiFidelitySurrogate(
		NewSurrogate(gp.NewMatern52(5), rand.New(rand.NewSource(7))))
	d := mfDeployment("c5.xlarge", 4)
	if _, err := m.ObserveAt(d, 2.0, 0.5); err != nil {
		t.Fatal(err)
	}
	up, err := m.ObserveAt(d, 2.12, 1)
	if err != nil {
		t.Fatal(err)
	}
	if up == nil {
		t.Fatal("full re-measurement of a pending low must promote")
	}
	if up.Key != "c5.xlarge" || up.Fidelity != 0.5 {
		t.Fatalf("GapUpdate identity wrong: %+v", up)
	}
	if math.Abs(up.Observed-0.12) > 1e-12 {
		t.Fatalf("observed gap = %v, want 0.12", up.Observed)
	}
	if math.Abs(up.Predicted-gp.DefaultPriorBeta*0.5) > 1e-12 {
		t.Fatalf("predicted gap = %v, want prior 0.09", up.Predicted)
	}
	if math.Abs(up.Residual-(up.Observed-up.Predicted)) > 1e-15 {
		t.Fatalf("residual %v inconsistent with observed−predicted", up.Residual)
	}
	if b := m.gap.Beta("c5.xlarge"); b == gp.DefaultPriorBeta || b != up.Beta {
		t.Fatalf("gap slope %v after promotion (update reports %v): the pair did not teach the gap model", b, up.Beta)
	}
	if _, ok := pendingFidelity(m, d); ok {
		t.Fatal("promoted entry still flagged low")
	}
	if got := m.BestObserved(); got != 2.12 {
		t.Fatalf("BestObserved = %v, want the measured 2.12", got)
	}
	// A second promotion of the same deployment is impossible.
	if up2, err := m.ObserveAt(d, 2.2, 1); err != nil || up2 != nil {
		t.Fatalf("re-observing in full promoted again: %+v, %v", up2, err)
	}
}

// TestMultiFidelityRefinementRules: a full measurement wins over any
// later low one, and among lows only strictly higher fidelity
// supersedes.
func TestMultiFidelityRefinementRules(t *testing.T) {
	m := NewMultiFidelitySurrogate(
		NewSurrogate(gp.NewMatern52(5), rand.New(rand.NewSource(9))))
	d := mfDeployment("c5.4xlarge", 2)
	if _, err := m.ObserveAt(d, 3.0, 1); err != nil {
		t.Fatal(err)
	}
	if up, err := m.ObserveAt(d, 1.0, 0.5); err != nil || up != nil {
		t.Fatalf("low-after-full: %+v, %v", up, err)
	}
	if _, ok := pendingFidelity(m, d); ok {
		t.Fatal("a biased reading displaced a full measurement")
	}

	d2 := mfDeployment("c5.4xlarge", 6)
	if _, err := m.ObserveAt(d2, 2.0, 0.25); err != nil {
		t.Fatal(err)
	}
	// Same fidelity again: ignored (no strict refinement).
	if _, err := m.ObserveAt(d2, 9.9, 0.25); err != nil {
		t.Fatal(err)
	}
	if f, _ := pendingFidelity(m, d2); f != 0.25 {
		t.Fatalf("fidelity after equal re-read = %v, want 0.25", f)
	}
	// Strictly higher fidelity supersedes.
	if _, err := m.ObserveAt(d2, 2.4, 0.6); err != nil {
		t.Fatal(err)
	}
	if f, _ := pendingFidelity(m, d2); f != 0.6 {
		t.Fatalf("fidelity after refinement = %v, want 0.6", f)
	}
}

// TestMultiFidelitySurrogateKnobs: the wrapper's pass-through surface —
// the classic Observe entry point and the perf plumbing land on the
// inner surrogate.
func TestMultiFidelitySurrogateKnobs(t *testing.T) {
	inner := NewSurrogate(gp.NewMatern52(5), rand.New(rand.NewSource(3)))
	m := NewMultiFidelitySurrogate(inner)
	p := obs.NewPerf(obs.NewRegistry())
	m.SetPerf(p)
	if inner.Perf != p {
		t.Fatal("SetPerf did not reach the inner surrogate")
	}
	if err := m.Observe(mfDeployment("c5.xlarge", 2), 1.7); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d after one Observe", m.Len())
	}
}
