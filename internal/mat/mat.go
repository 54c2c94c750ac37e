// Package mat provides the small dense linear-algebra kernel used by the
// Gaussian-process surrogate: column-major-free dense matrices, Cholesky
// factorization of symmetric positive-definite systems, and triangular
// solves. It is deliberately minimal — GP regression on a few dozen
// profiled points needs nothing more — and has no dependencies beyond the
// standard library.
package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotSPD is returned when a Cholesky factorization encounters a
// non-positive pivot, i.e. the input matrix is not (numerically)
// symmetric positive-definite.
var ErrNotSPD = errors.New("mat: matrix is not positive-definite")

// Dense is a row-major dense matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense allocates an r×c zero matrix.
func NewDense(r, c int) *Dense {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %d×%d", r, c))
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Row returns a view of row i (mutating the slice mutates the matrix).
func (m *Dense) Row(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols] }

// Reset resizes m to r×c, reusing its backing array when capacity
// allows. The elements' values are unspecified afterwards: it is the
// allocation-free counterpart of NewDense for scratch matrices whose
// callers write every element they later read. A backing array that is
// too small is replaced by one of at least twice its capacity: the GP's
// scratch matrices grow a row at a time (the kernel matrix per refit,
// the sweep's cross-kernel block per probe), and doubling keeps their
// reallocations logarithmic in the final size.
func (m *Dense) Reset(r, c int) {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %d×%d", r, c))
	}
	n := r * c
	if cap(m.data) < n {
		m.data = make([]float64, n, max(n, 2*cap(m.data)))
	} else {
		m.data = m.data[:n]
	}
	m.rows, m.cols = r, c
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: vector length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Cholesky holds the lower-triangular factor L of an SPD matrix A = L·Lᵀ.
type Cholesky struct {
	n int
	l *Dense // lower triangular, including diagonal
}

// CholeskyInto factors a + shift·I, writing the lower-triangular factor
// into dst's storage (resized with Reset when dst has another order), or
// into a new factor when dst is nil. Only the lower triangle of a is
// read, and a itself is never mutated, so the same pristine matrix can be
// retried under an escalating shift. On ErrNotSPD the contents of the
// returned factor are unspecified. The factor is the left-looking loop
// (factorScalar), which LaneCholesky replays lane by lane.
func CholeskyInto(dst *Cholesky, a *Dense, shift float64) (*Cholesky, error) {
	if a.rows != a.cols {
		panic(fmt.Sprintf("mat: Cholesky of non-square %d×%d", a.rows, a.cols))
	}
	n := a.rows
	if dst == nil {
		dst = &Cholesky{n: n, l: NewDense(n, n)}
	} else if dst.n != n {
		dst.n = n
		dst.l.Reset(n, n)
	}
	if factorScalar(dst.l, a, shift) < n {
		return dst, ErrNotSPD
	}
	return dst, nil
}

// factorScalar writes the lower-triangular factor of a + shift·I into l,
// which has a's order, column by column (left-looking). It returns the
// order, or the column whose pivot d fails d > 0 (d ≤ 0 or NaN).
func factorScalar(l, a *Dense, shift float64) int {
	n := a.rows
	for j := 0; j < n; j++ {
		d := a.At(j, j) + shift
		lrowj := l.Row(j)
		for k := 0; k < j; k++ {
			d -= lrowj[k] * lrowj[k]
		}
		if d <= 0 || math.IsNaN(d) {
			return j
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
		// Zero the strictly-upper part of the row so a reused buffer
		// never leaks a previous factorization.
		for k := j + 1; k < n; k++ {
			lrowj[k] = 0
		}
	}
	return n
}

// Extend grows the factorization from order n to n+1 given the new
// bordering row of the underlying SPD matrix: row holds A[n][0..n-1] and
// diag holds A[n][n], both already carrying any diagonal shift the
// original factorization used. The append costs O(n²) instead of the
// O(n³) full refactor, and its floating-point operations replicate what
// the left-looking factor (factorScalar) executes for the final row — an
// extended factor is bit-for-bit indistinguishable from a from-scratch
// one. On ErrNotSPD
// the receiver is left unchanged.
func (c *Cholesky) Extend(row []float64, diag float64) error {
	n := c.n
	if len(row) != n {
		panic(fmt.Sprintf("mat: Extend row length %d != order %d", len(row), n))
	}
	nl := NewDense(n+1, n+1)
	for i := 0; i < n; i++ {
		copy(nl.Row(i)[:n], c.l.Row(i))
	}
	lrow := nl.Row(n)
	for j := 0; j < n; j++ {
		s := row[j]
		lrowj := nl.Row(j)
		for k := 0; k < j; k++ {
			s -= lrow[k] * lrowj[k]
		}
		lrow[j] = s / lrowj[j]
	}
	d := diag
	for k := 0; k < n; k++ {
		d -= lrow[k] * lrow[k]
	}
	if d <= 0 || math.IsNaN(d) {
		return ErrNotSPD
	}
	lrow[n] = math.Sqrt(d)
	c.l = nl
	c.n = n + 1
	return nil
}

// ForwardSolveInto solves L·y = b into dst, which must have length n.
// dst may alias b: each b[i] is consumed before y[i] is written.
func (c *Cholesky) ForwardSolveInto(dst, b []float64) []float64 {
	if len(b) != c.n || len(dst) != c.n {
		panic(fmt.Sprintf("mat: ForwardSolveInto lengths %d,%d != order %d", len(dst), len(b), c.n))
	}
	for i := 0; i < c.n; i++ {
		s := b[i]
		row := c.l.Row(i)
		for k := 0; k < i; k++ {
			s -= row[k] * dst[k]
		}
		dst[i] = s / row[i]
	}
	return dst
}

// backSolveInto solves Lᵀ·x = y into dst. dst may alias y: x[i] depends
// only on y[i] and already-written x[k>i].
func (c *Cholesky) backSolveInto(dst, y []float64) []float64 {
	for i := c.n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < c.n; k++ {
			s -= c.l.At(k, i) * dst[k]
		}
		dst[i] = s / c.l.At(i, i)
	}
	return dst
}

// SolveVecInto solves A·x = b into dst (length n, may alias b) without
// allocating: the forward and backward substitutions run in place.
func (c *Cholesky) SolveVecInto(dst, b []float64) []float64 {
	if len(b) != c.n || len(dst) != c.n {
		panic(fmt.Sprintf("mat: SolveVecInto lengths %d,%d != order %d", len(dst), len(b), c.n))
	}
	c.ForwardSolveInto(dst, b)
	return c.backSolveInto(dst, dst)
}

// LogDet returns log|A| = 2·Σ log L[i,i].
func (c *Cholesky) LogDet() float64 {
	var s float64
	for i := 0; i < c.n; i++ {
		s += math.Log(c.l.At(i, i))
	}
	return 2 * s
}

// sameBits reports whether a and b hold the same float64 bit patterns,
// value by value (the kernels' self-checks compare with it).
func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
