package mat

import "mlcd/internal/cpufeat"

// choleskyLanes writes the factor of a + shift·I into l, both n×n, and
// returns n, or the column whose pivot is not positive (lanes_amd64.s).
// It reads only a's lower triangle, and every entry of a factor it
// completes is bit-identical to factorScalar's.
//
//go:noescape
func choleskyLanes(l, a []float64, n int, shift float64) int

// forwardSolveLanes solves L·Y = B in place for the n×m row-major y,
// four columns at a time, each column bit-identical to ForwardSolveInto
// (lanes_amd64.s).
//
//go:noescape
func forwardSolveLanes(l []float64, n int, y []float64, m int)

// cholArmed and solveArmed are set once, at start-up: each kernel runs
// only where the CPU and OS offer AVX2 and its self-check matched its
// scalar loop. Tests flip them to exercise the scalar paths.
var (
	cholArmed  = cpufeat.AVX2 && cholSelfCheck()
	solveArmed = cpufeat.AVX2 && solveSelfCheck()
)

// probeMatrix returns the 9×9 Hilbert matrix, 1/(i+j+1): symmetric
// positive-definite, most entries inexact, and ill-conditioned enough
// that a negative shift fails it at a later column.
func probeMatrix() *Dense {
	const n = 9
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, 1/float64(i+j+1))
		}
	}
	return a
}

// cholSelfCheck factors probeMatrix with both loops, at a shift that
// succeeds and one that fails past column 0, and reports whether the
// factors match bit for bit and the failing columns agree.
func cholSelfCheck() bool {
	a := probeMatrix()
	n := a.rows
	want, got := NewDense(n, n), NewDense(n, n)
	for _, shift := range []float64{1e-9, -0.25} {
		wc, gc := factorScalar(want, a, shift), choleskyLanes(got.data, a.data, n, shift)
		if wc != gc || wc == 0 {
			return false
		}
		if wc == n && !sameBits(got.data, want.data) {
			return false
		}
	}
	return true
}

// solveSelfCheck forward-solves a 9×7 block (one block of four columns
// and a tail of three) against probeMatrix's factor with both loops.
func solveSelfCheck() bool {
	a := probeMatrix()
	n, m := a.rows, 7
	l := NewDense(n, n)
	if factorScalar(l, a, 1e-9) != n {
		return false
	}
	c := &Cholesky{n: n, l: l}
	want, got := NewDense(n, m), NewDense(n, m)
	for i := range want.data {
		want.data[i] = float64(i%11+1) / 7
		got.data[i] = want.data[i]
	}
	forwardSolveScalar(c, want)
	forwardSolveLanes(l.data, n, got.data, m)
	return sameBits(got.data, want.data)
}
