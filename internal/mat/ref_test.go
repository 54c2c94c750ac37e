package mat

import (
	"fmt"
	"math"
)

// This file holds the helpers only tests call: constructors, accessors
// and the allocating solves, and NewCholesky, the left-looking factor
// every faster path is pinned against.

// NewDenseData wraps data (row-major, length r*c) in a Dense without copying.
func NewDenseData(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: data length %d != %d×%d", len(data), r, c))
	}
	return &Dense{rows: r, cols: c, data: data}
}

// Dims returns the row and column counts.
func (m *Dense) Dims() (r, c int) { return m.rows, m.cols }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	d := make([]float64, len(m.data))
	copy(d, m.data)
	return &Dense{rows: m.rows, cols: m.cols, data: d}
}

// SymmetricFrom builds a symmetric matrix from a kernel function
// k(i, j) evaluated for i ≤ j.
func SymmetricFrom(n int, k func(i, j int) float64) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := k(i, j)
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

// AddDiag adds v to every diagonal element of the square matrix m in place.
func AddDiag(m *Dense, v float64) {
	if m.rows != m.cols {
		panic("mat: AddDiag of non-square matrix")
	}
	for i := 0; i < m.rows; i++ {
		m.data[i*m.cols+i] += v
	}
}

// mulVec computes the matrix-vector product a·x.
func mulVec(a *Dense, x []float64) []float64 {
	out := make([]float64, a.rows)
	for i := range out {
		out[i] = Dot(a.Row(i), x)
	}
	return out
}

// NewCholesky factors the symmetric positive-definite matrix a with the
// left-looking loop, column by column. Only the lower triangle of a is
// read.
func NewCholesky(a *Dense) (*Cholesky, error) {
	if a.rows != a.cols {
		panic(fmt.Sprintf("mat: Cholesky of non-square %d×%d", a.rows, a.cols))
	}
	n := a.rows
	l := NewDense(n, n)
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		lrowj := l.Row(j)
		for k := 0; k < j; k++ {
			d -= lrowj[k] * lrowj[k]
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotSPD
		}
		diag := math.Sqrt(d)
		lrowj[j] = diag
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			lrowi := l.Row(i)
			for k := 0; k < j; k++ {
				s -= lrowi[k] * lrowj[k]
			}
			lrowi[j] = s / diag
		}
	}
	return &Cholesky{n: n, l: l}, nil
}

// Size returns the order of the factored matrix.
func (c *Cholesky) Size() int { return c.n }

// L returns the lower-triangular factor (shared storage; do not mutate).
func (c *Cholesky) L() *Dense { return c.l }

// SolveVec solves A·x = b given the factorization A = L·Lᵀ.
func (c *Cholesky) SolveVec(b []float64) []float64 {
	if len(b) != c.n {
		panic(fmt.Sprintf("mat: SolveVec length %d != order %d", len(b), c.n))
	}
	y := c.ForwardSolve(b)
	return c.backSolve(y)
}

// ForwardSolve solves L·y = b (in a fresh slice).
func (c *Cholesky) ForwardSolve(b []float64) []float64 {
	return c.ForwardSolveInto(make([]float64, c.n), b)
}

// backSolve solves Lᵀ·x = y.
func (c *Cholesky) backSolve(y []float64) []float64 {
	return c.backSolveInto(make([]float64, c.n), y)
}
