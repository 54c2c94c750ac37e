package gp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mlcd/internal/mat"
)

func allKernels(dim int) []Kernel {
	return []Kernel{NewSE(dim), NewMatern52(dim)}
}

func TestKernelSelfCovarianceIsSigma2(t *testing.T) {
	x := []float64{0.3, -1.2}
	for _, k := range allKernels(2) {
		if got := k.Eval(x, x); math.Abs(got-1) > 1e-12 {
			t.Errorf("%s: k(x,x) = %v, want σ²=1", k.Name(), got)
		}
		p := k.Params()
		p[0] = math.Log(4) // σ² = 4
		k.SetParams(p)
		if got := k.Eval(x, x); math.Abs(got-4) > 1e-12 {
			t.Errorf("%s: k(x,x) = %v, want 4", k.Name(), got)
		}
	}
}

func TestKernelSymmetry(t *testing.T) {
	x := []float64{1, 2}
	y := []float64{-0.5, 0.7}
	for _, k := range allKernels(2) {
		if k.Eval(x, y) != k.Eval(y, x) {
			t.Errorf("%s: kernel not symmetric", k.Name())
		}
	}
}

func TestKernelDecaysWithDistance(t *testing.T) {
	o := []float64{0}
	for _, k := range allKernels(1) {
		prev := k.Eval(o, o)
		for _, d := range []float64{0.5, 1, 2, 4} {
			v := k.Eval(o, []float64{d})
			if v >= prev {
				t.Errorf("%s: k not decreasing at distance %v", k.Name(), d)
			}
			if v < 0 {
				t.Errorf("%s: negative covariance %v", k.Name(), v)
			}
			prev = v
		}
	}
}

func TestKernelLengthscaleStretches(t *testing.T) {
	for _, k := range allKernels(1) {
		near := k.Eval([]float64{0}, []float64{1})
		p := k.Params()
		p[1] = math.Log(10) // ℓ = 10
		k.SetParams(p)
		far := k.Eval([]float64{0}, []float64{1})
		if far <= near {
			t.Errorf("%s: longer lengthscale must raise covariance (%v vs %v)", k.Name(), far, near)
		}
	}
}

func TestKernelSEKnownValue(t *testing.T) {
	k := NewSE(1)
	// k(0, 1) = exp(-0.5) with unit params.
	if got, want := k.Eval([]float64{0}, []float64{1}), math.Exp(-0.5); math.Abs(got-want) > 1e-12 {
		t.Fatalf("SE(0,1) = %v, want %v", got, want)
	}
}

func TestKernelCloneIndependent(t *testing.T) {
	for _, k := range allKernels(2) {
		c := k.Clone()
		p := c.Params()
		p[0] = math.Log(9)
		c.SetParams(p)
		if k.Eval([]float64{0, 0}, []float64{0, 0}) != 1 {
			t.Errorf("%s: Clone shares parameter state", k.Name())
		}
	}
}

func TestKernelSetParamsPanicsOnWrongLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSE(2).SetParams([]float64{0})
}

func TestKernelDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMatern52(2).Eval([]float64{1}, []float64{1, 2})
}

func TestKernelBoundsCoverDefaults(t *testing.T) {
	for _, k := range allKernels(3) {
		b := k.ParamBounds()
		p := k.Params()
		if len(b.Lo) != len(p) || len(b.Hi) != len(p) {
			t.Fatalf("%s: bounds length mismatch", k.Name())
		}
		for i := range p {
			if p[i] < b.Lo[i] || p[i] > b.Hi[i] {
				t.Errorf("%s: default param %d = %v outside [%v, %v]", k.Name(), i, p[i], b.Lo[i], b.Hi[i])
			}
		}
	}
}

// Property: gram matrices of all kernels are positive semi-definite
// (positive-definite after tiny jitter) for random point sets.
func TestQuickKernelGramPSD(t *testing.T) {
	f := func(seed int64, nRaw, dRaw uint8) bool {
		n := int(nRaw%8) + 2
		dim := int(dRaw%3) + 1
		rng := rand.New(rand.NewSource(seed))
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = make([]float64, dim)
			for j := range pts[i] {
				pts[i][j] = rng.NormFloat64() * 3
			}
		}
		for _, k := range allKernels(dim) {
			gram := mat.NewDense(n, n)
			for i := range pts {
				for j := range pts {
					gram.Set(i, j, k.Eval(pts[i], pts[j]))
				}
			}
			if _, err := mat.CholeskyInto(nil, gram, 1e-8); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: 0 ≤ k(x,y) ≤ k(x,x) for all kernels (stationarity bound;
// equality with zero is reachable by float underflow at large distances).
func TestQuickKernelBounded(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		a = math.Mod(a, 100)
		b = math.Mod(b, 100)
		for _, k := range allKernels(1) {
			v := k.Eval([]float64{a}, []float64{b})
			self := k.Eval([]float64{a}, []float64{a})
			if v < 0 || v > self+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
