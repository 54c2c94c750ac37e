package mat

import (
	"math/rand"
	"testing"
)

// randomDense fills an r×c matrix with standard normals.
func randomDense(r, c int, rng *rand.Rand) *Dense {
	m := NewDense(r, c)
	for i := range m.data {
		m.data[i] = rng.NormFloat64()
	}
	return m
}

// sameDense asserts bit equality entry for entry: the batch kernels
// replay the vector kernels' floating-point operations exactly, so any
// difference at all is a contract violation.
func sameDense(t *testing.T, got, want *Dense, label string) {
	t.Helper()
	gr, gc := got.Dims()
	wr, wc := want.Dims()
	if gr != wr || gc != wc {
		t.Fatalf("%s: dims %d×%d, want %d×%d", label, gr, gc, wr, wc)
	}
	for i := 0; i < wr; i++ {
		for j := 0; j < wc; j++ {
			if g, w := got.At(i, j), want.At(i, j); g != w {
				t.Fatalf("%s: [%d][%d] = %v, want %v (diff %g)", label, i, j, g, w, g-w)
			}
		}
	}
}

// column extracts column j of m into a fresh slice.
func column(m *Dense, j int) []float64 {
	r, _ := m.Dims()
	out := make([]float64, r)
	for i := 0; i < r; i++ {
		out[i] = m.At(i, j)
	}
	return out
}

// TestMulTVecIntoMatchesDotPerColumn checks dst[j] is bit-identical to
// Dot(column j, x) — the exact accumulation PredictInto uses for the
// posterior mean of one query.
func TestMulTVecIntoMatchesDotPerColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 30; trial++ {
		r, c := 1+rng.Intn(12), 1+rng.Intn(12)
		a := randomDense(r, c, rng)
		x := make([]float64, r)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		dst := make([]float64, c)
		// Pre-poison dst to prove it is fully overwritten.
		for j := range dst {
			dst[j] = rng.NormFloat64()
		}
		MulTVecInto(dst, a, x)
		for j := 0; j < c; j++ {
			if want := Dot(column(a, j), x); dst[j] != want {
				t.Fatalf("trial %d: col %d = %v, want Dot %v", trial, j, dst[j], want)
			}
		}
	}
}

// TestForwardSolveBatchMatchesPerColumn pins the batched L·Y = B solve
// against ForwardSolveInto run on each column separately, bit for bit,
// both out-of-place and aliased in place.
func TestForwardSolveBatchMatchesPerColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var dst *Dense
	for trial := 0; trial < 30; trial++ {
		n, m := 1+rng.Intn(12), 1+rng.Intn(12)
		chol, err := NewCholesky(randomSPD(n, rng))
		if err != nil {
			t.Fatal(err)
		}
		b := randomDense(n, m, rng)
		want := NewDense(n, m)
		col := make([]float64, n)
		for j := 0; j < m; j++ {
			chol.ForwardSolveInto(col, column(b, j))
			for i := 0; i < n; i++ {
				want.Set(i, j, col[i])
			}
		}
		dst = chol.ForwardSolveBatchInto(dst, b)
		sameDense(t, dst, want, "ForwardSolveBatchInto")
		// In place: dst aliases b.
		chol.ForwardSolveBatchInto(b, b)
		sameDense(t, b, want, "ForwardSolveBatchInto in place")
	}
}

// FuzzForwardSolveBatch drives the batched forward solve L·Y = B (the
// solve gp.PredictMatrix runs) with fuzzer-chosen sizes and seeds,
// asserting per-column bit equality with ForwardSolveInto — the same
// harness shape FuzzCholeskyExtend uses.
func FuzzForwardSolveBatch(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(4))
	f.Add(int64(42), uint8(8), uint8(1))
	f.Add(int64(-7), uint8(1), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, size, rhs uint8) {
		n := int(size%14) + 1
		m := int(rhs%14) + 1
		rng := rand.New(rand.NewSource(seed))
		chol, err := NewCholesky(randomSPD(n, rng))
		if err != nil {
			t.Skip("factorization failed")
		}
		b := randomDense(n, m, rng)
		got := chol.ForwardSolveBatchInto(nil, b)
		col := make([]float64, n)
		for j := 0; j < m; j++ {
			chol.ForwardSolveInto(col, column(b, j))
			for i := 0; i < n; i++ {
				if got.At(i, j) != col[i] {
					t.Fatalf("col %d row %d: %v != %v", j, i, got.At(i, j), col[i])
				}
			}
		}
	})
}
