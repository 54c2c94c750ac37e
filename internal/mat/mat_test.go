package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestNewDenseZeroed(t *testing.T) {
	m := NewDense(3, 4)
	r, c := m.Dims()
	if r != 3 || c != 4 {
		t.Fatalf("Dims = %d×%d, want 3×4", r, c)
	}
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("At(%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewDensePanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 0×0 matrix")
		}
	}()
	NewDense(0, 0)
}

func TestNewDenseDataPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched data length")
		}
	}()
	NewDenseData(2, 2, []float64{1, 2, 3})
}

func TestSetAtRoundTrip(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %v, want 7.5", got)
	}
	if got := m.At(0, 0); got != 0 {
		t.Fatalf("At(0,0) = %v, want 0", got)
	}
}

func TestRowIsView(t *testing.T) {
	m := NewDense(2, 2)
	m.Row(0)[1] = 3
	if m.At(0, 1) != 3 {
		t.Fatal("Row must be a mutable view")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := NewDenseData(2, 2, []float64{1, 2, 3, 4})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestDotLengthPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

// randomSPD builds a well-conditioned random SPD matrix A = BᵀB + n·I.
func randomSPD(n int, rng *rand.Rand) *Dense {
	b := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b.Set(i, j, rng.NormFloat64())
		}
	}
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += b.At(k, i) * b.At(k, j)
			}
			a.Set(i, j, s)
		}
	}
	AddDiag(a, float64(n))
	return a
}

func TestCholeskyReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 5, 12} {
		a := randomSPD(n, rng)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		l := ch.L()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var s float64
				for k := 0; k <= min(i, j); k++ {
					s += l.At(i, k) * l.At(j, k)
				}
				if !almostEq(s, a.At(i, j), 1e-10) {
					t.Fatalf("n=%d: (L·Lᵀ)[%d][%d] = %v, want %v", n, i, j, s, a.At(i, j))
				}
			}
		}
	}
}

func TestCholeskyNotSPD(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if _, err := NewCholesky(a); err != ErrNotSPD {
		t.Fatalf("err = %v, want ErrNotSPD", err)
	}
}

func TestCholeskySolveVec(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 3, 8} {
		a := randomSPD(n, rng)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := mulVec(a, want)
		got := ch.SolveVec(b)
		for i := range want {
			if !almostEq(got[i], want[i], 1e-9) {
				t.Fatalf("n=%d: x[%d] = %v, want %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestCholeskyLogDet(t *testing.T) {
	// diag(4, 9): |A| = 36, log = log 36.
	a := NewDenseData(2, 2, []float64{4, 0, 0, 9})
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ch.LogDet(), math.Log(36); !almostEq(got, want, 1e-12) {
		t.Fatalf("LogDet = %v, want %v", got, want)
	}
}

func TestForwardSolve(t *testing.T) {
	// L = [[2,0],[1,3]]; solve L·y = [4, 7] → y = [2, 5/3].
	a := NewDenseData(2, 2, []float64{4, 2, 2, 10}) // = L·Lᵀ
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	y := ch.ForwardSolve([]float64{4, 7})
	if !almostEq(y[0], 2, 1e-12) || !almostEq(y[1], 5.0/3.0, 1e-12) {
		t.Fatalf("ForwardSolve = %v, want [2 1.666…]", y)
	}
}

func TestSymmetricFrom(t *testing.T) {
	m := SymmetricFrom(3, func(i, j int) float64 { return float64(i + j) })
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != m.At(j, i) {
				t.Fatalf("asymmetric at (%d,%d)", i, j)
			}
			if m.At(i, j) != float64(i+j) {
				t.Fatalf("At(%d,%d) = %v, want %v", i, j, m.At(i, j), i+j)
			}
		}
	}
}

func TestAddDiag(t *testing.T) {
	m := NewDense(2, 2)
	AddDiag(m, 1.5)
	if m.At(0, 0) != 1.5 || m.At(1, 1) != 1.5 || m.At(0, 1) != 0 {
		t.Fatalf("AddDiag wrong: %v", m)
	}
}

// Property: Cholesky solve inverts multiplication for arbitrary
// well-conditioned SPD systems.
func TestQuickCholeskySolveInvertsMul(t *testing.T) {
	f := func(seed int64, szRaw uint8) bool {
		n := int(szRaw%10) + 1
		rng := rand.New(rand.NewSource(seed))
		a := randomSPD(n, rng)
		ch, err := NewCholesky(a)
		if err != nil {
			return false
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * 10
		}
		got := ch.SolveVec(mulVec(a, x))
		for i := range x {
			if !almostEq(got[i], x[i], 1e-7) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: log-determinant of an SPD matrix from Cholesky matches the
// product of eigenvalue bounds for diagonal matrices.
func TestQuickLogDetDiagonal(t *testing.T) {
	f := func(vals []float64) bool {
		n := 0
		d := make([]float64, 0, len(vals))
		for _, v := range vals {
			v = math.Abs(v)
			if v > 1e-6 && v < 1e6 {
				d = append(d, v)
				n++
			}
			if n == 8 {
				break
			}
		}
		if n == 0 {
			return true
		}
		a := NewDense(n, n)
		want := 0.0
		for i, v := range d {
			a.Set(i, i, v)
			want += math.Log(v)
		}
		ch, err := NewCholesky(a)
		if err != nil {
			return false
		}
		return almostEq(ch.LogDet(), want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
