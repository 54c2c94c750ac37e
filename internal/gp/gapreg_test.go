package gp

import (
	"math"
	"testing"
)

// TestGapRegressorPriorBeforeData: with no pairs observed, every key
// predicts from the prior slope alone.
func TestGapRegressorPriorBeforeData(t *testing.T) {
	g := NewGapRegressor()
	if got, want := g.Beta("p3.2xlarge"), DefaultPriorBeta; got != want {
		t.Fatalf("cold Beta = %v, want prior %v", got, want)
	}
	if got, want := g.Predict("p3.2xlarge", 0.5), DefaultPriorBeta*0.5; got != want {
		t.Fatalf("cold Predict(f=0.5) = %v, want %v", got, want)
	}
	if got := g.Predict("p3.2xlarge", 1); got != 0 {
		t.Fatalf("full fidelity predicts gap %v, want 0", got)
	}
	if g.byKey["p3.2xlarge"] != nil {
		t.Fatal("cold regressor holds a fit")
	}
}

// TestGapRegressorExactRecovery: many noise-free pairs from a single
// true slope β drive the estimate to β — the shrinkage terms wash out
// as data accumulates.
func TestGapRegressorExactRecovery(t *testing.T) {
	const trueBeta = 0.12
	g := NewGapRegressor()
	for i := 0; i < 400; i++ {
		f := 0.1 + 0.8*float64(i%9)/8
		g.Observe("c5.xlarge", f, trueBeta*(1-f))
	}
	if got := g.Beta("c5.xlarge"); math.Abs(got-trueBeta) > 0.002 {
		t.Fatalf("recovered β = %v, want ≈ %v", got, trueBeta)
	}
	// Correct inverts the gap: lifting a low reading lands on the full value.
	yFull, f := 3.5, 0.4
	yLow := yFull - trueBeta*(1-f)
	if got := g.Correct("c5.xlarge", f, yLow); math.Abs(got-yFull) > 0.002 {
		t.Fatalf("Correct = %v, want ≈ %v", got, yFull)
	}
	if fit := g.byKey["c5.xlarge"]; fit == nil || fit.n != 400 {
		t.Fatalf("fit = %+v, want 400 pairs", fit)
	}
}

// TestGapRegressorShrinkage: one pair moves the estimate from the prior
// toward the observation but not all the way — and an unseen key
// borrows the global slope learned from other keys.
func TestGapRegressorShrinkage(t *testing.T) {
	g := NewGapRegressor()
	// One pair with implied slope 0.30 at x = 1−0.5 = 0.5.
	g.Observe("c5.xlarge", 0.5, 0.30*0.5)
	got := g.Beta("c5.xlarge")
	if got <= 0.18 || got >= 0.30 {
		t.Fatalf("one-pair β = %v, want strictly between prior 0.18 and observed 0.30", got)
	}
	// Exact arithmetic: global = (0.5·0.15 + 1·0.18)/(0.25 + 1) = 0.204;
	// key = (0.075 + 0.204)/(0.25 + 1) = 0.2232.
	if want := (0.5*0.15 + 0.18) / 1.25; math.Abs(g.globalBetaForTest()-want) > 1e-12 {
		t.Fatalf("global β = %v, want %v", g.globalBetaForTest(), want)
	}
	if want := (0.075 + (0.5*0.15+0.18)/1.25) / 1.25; math.Abs(got-want) > 1e-12 {
		t.Fatalf("key β = %v, want hand-computed %v", got, want)
	}
	// A key with no pairs of its own inherits the (shifted) global slope.
	if cold := g.Beta("p2.xlarge"); math.Abs(cold-(0.5*0.15+0.18)/1.25) > 1e-12 {
		t.Fatalf("unseen key β = %v, want global %v", cold, (0.5*0.15+0.18)/1.25)
	}
}

// globalBetaForTest exposes the shrunk global slope (same formula Beta
// uses for unseen keys).
func (g *GapRegressor) globalBetaForTest() float64 {
	return (g.global.sxy + priorWeight*DefaultPriorBeta) / (g.global.sxx + priorWeight)
}

// TestGapRegressorIgnoresFullPairs: x = 1−f ≤ 0 carries no slope
// information and must not poison the statistics.
func TestGapRegressorIgnoresFullPairs(t *testing.T) {
	g := NewGapRegressor()
	g.Observe("k", 1.0, 0.5)
	g.Observe("k", 1.5, -0.5)
	if g.byKey["k"] != nil || g.global.n != 0 {
		t.Fatalf("full-fidelity observations counted as pairs: %+v", g.global)
	}
	if got := g.Beta("k"); got != 0.18 {
		t.Fatalf("β moved to %v on zero-information pairs", got)
	}
}
