package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNormPDF(t *testing.T) {
	if got, want := NormPDF(0), 1/math.Sqrt(2*math.Pi); math.Abs(got-want) > 1e-15 {
		t.Fatalf("NormPDF(0) = %v, want %v", got, want)
	}
	if NormPDF(1) >= NormPDF(0) {
		t.Fatal("pdf must decrease away from 0")
	}
	if math.Abs(NormPDF(3)-NormPDF(-3)) > 1e-16 {
		t.Fatal("pdf must be symmetric")
	}
}

func TestNormCDFKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145707},
		{1.959963984540054, 0.975},
		{-4, 3.167124183311998e-05},
	}
	for _, c := range cases {
		if got := NormCDF(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("NormCDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestWelfordMatchesDirect(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	if w.N() != len(xs) {
		t.Fatalf("N = %d", w.N())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Fatalf("Mean = %v, want 5", w.Mean())
	}
	// Sample variance of the classic dataset: Σ(x-5)² = 32, /7.
	if math.Abs(w.Var()-32.0/7.0) > 1e-12 {
		t.Fatalf("Var = %v, want %v", w.Var(), 32.0/7.0)
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Var() != 0 || w.Std() != 0 {
		t.Fatal("empty accumulator must be all-zero")
	}
	w.Add(3)
	if w.Mean() != 3 || w.Var() != 0 {
		t.Fatal("single observation: mean 3, var 0")
	}
}

func TestMeanStd(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) must be 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Mean = %v", got)
	}
	if got := Std([]float64{1, 1, 1}); got != 0 {
		t.Fatalf("Std of constants = %v", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 4}
	if got := Quantile(xs, 0); got != 1 {
		t.Fatalf("q0 = %v", got)
	}
	if got := Quantile(xs, 1); got != 4 {
		t.Fatalf("q1 = %v", got)
	}
	if got := Quantile(xs, 0.5); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
	if got := Quantile([]float64{7}, 0.3); got != 7 {
		t.Fatalf("singleton quantile = %v", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty quantile must be NaN")
	}
}

func TestQuantilePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Quantile([]float64{1}, 1.5)
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Quantile must not sort its input in place")
	}
}

func TestSummarize(t *testing.T) {
	w := Summarize([]float64{5, 1, 3, 2, 4})
	if w.Min != 1 || w.Max != 5 || w.Median != 3 || w.Mean != 3 || w.N != 5 {
		t.Fatalf("Summarize = %+v", w)
	}
	if w.Q1 != 2 || w.Q3 != 4 {
		t.Fatalf("quartiles = %v, %v", w.Q1, w.Q3)
	}
	if w.String() == "" {
		t.Fatal("String must render")
	}
	empty := Summarize(nil)
	if !math.IsNaN(empty.Min) {
		t.Fatal("empty summary must be NaN-valued")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("Clamp wrong")
	}
}

// Property: CDF is monotone and bounded in (0,1) for finite x.
func TestQuickNormCDFMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		ca, cb := NormCDF(lo), NormCDF(hi)
		return ca <= cb && ca >= 0 && cb <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: whisker ordering min ≤ q1 ≤ med ≤ q3 ≤ max and min ≤ mean ≤ max.
func TestQuickWhiskerOrdering(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0:0]
		for _, x := range xs {
			// Keep magnitudes moderate so Σx cannot overflow in Mean.
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e100 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		w := Summarize(clean)
		return w.Min <= w.Q1 && w.Q1 <= w.Median && w.Median <= w.Q3 &&
			w.Q3 <= w.Max && w.Min <= w.Mean && w.Mean <= w.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
