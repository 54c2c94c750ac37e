package mat

import "fmt"

// This file holds the batched (multi-right-hand-side) kernels behind
// gp.PredictMatrix. Each one is the row-major restriction of its vector
// counterpart: for every column c of the right-hand-side block, the
// floating-point operations — values, order, and rounding — are exactly
// the ones the vector routine would execute on that column alone. The
// batch forms exist to turn m per-candidate solves into one cache-friendly
// pass, never to change a single bit of any result; batch_test.go pins
// the equivalence property-style and under fuzzing, the same way
// Cholesky.Extend was pinned against the from-scratch factorization.

// MulTVecInto computes dst = aᵀ·x, i.e. dst[j] = Σᵢ a[i][j]·x[i], without
// allocating. The sum over i runs in ascending order, which per column j
// is exactly Dot(column j of a, x) — the accumulation PredictInto performs
// for one query's posterior mean, replicated for every column at once.
func MulTVecInto(dst []float64, a *Dense, x []float64) []float64 {
	if a.rows != len(x) {
		panic(fmt.Sprintf("mat: dimension mismatch %d×%dᵀ · %d", a.rows, a.cols, len(x)))
	}
	if len(dst) != a.cols {
		panic(fmt.Sprintf("mat: MulTVecInto dst length %d != %d", len(dst), a.cols))
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < a.rows; i++ {
		arow := a.Row(i)
		xi := x[i]
		for j, v := range arow {
			dst[j] += v * xi
		}
	}
	return dst
}

// ForwardSolveBatchInto solves L·Y = B for an n×m right-hand-side block,
// writing Y into dst (resized as needed; dst may be b itself for an
// in-place solve). Column c of the result is bit-for-bit what
// ForwardSolveInto produces on column c of b: the row-i accumulator
// starts at b[i][c], subtracts L[i][k]·y[k][c] for k ascending, and
// divides by L[i][i] last.
func (c *Cholesky) ForwardSolveBatchInto(dst, b *Dense) *Dense {
	if b.rows != c.n {
		panic(fmt.Sprintf("mat: ForwardSolveBatchInto rows %d != order %d", b.rows, c.n))
	}
	if dst == nil {
		dst = NewDense(b.rows, b.cols)
	} else if dst != b {
		dst.Reset(b.rows, b.cols)
	}
	for i := 0; i < c.n; i++ {
		drow := dst.Row(i)
		if dst != b {
			copy(drow, b.Row(i))
		}
		lrow := c.l.Row(i)
		for k := 0; k < i; k++ {
			lik := lrow[k]
			yrow := dst.Row(k)
			for j, yv := range yrow {
				drow[j] -= lik * yv
			}
		}
		diag := lrow[i]
		for j := range drow {
			drow[j] /= diag
		}
	}
	return dst
}
