package mat

import "mlcd/internal/cpufeat"

// forwardSolveLanes solves L·Y = B in place for the n×m row-major y,
// four columns at a time, each column bit-identical to ForwardSolveInto
// (lanes_amd64.s).
//
//go:noescape
func forwardSolveLanes(l []float64, n int, y []float64, m int)

// solveArmed and laneCholArmed are set once, at start-up: each kernel
// runs only where the CPU and OS offer AVX2 and its self-check matched
// its scalar loops. Tests flip them to exercise the scalar paths.
var (
	solveArmed    = cpufeat.AVX2 && solveSelfCheck()
	laneCholArmed = cpufeat.AVX2 && laneCholSelfCheck()
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

// factorLanes interleaves four packed lower triangles of order n from
// tris (lane l's at off[l]) into l, adds shift[l] to lane l's diagonal
// and factors all four in place, left-looking, each lane's every entry
// bit-identical to factorScalar's (lanes_amd64.s). It returns the mask
// of lanes whose pivot failed d > 0.
//
//go:noescape
func factorLanes(l, tris []float64, n int, off *[4]int, shift *[4]float64) int

// solveDotLanes solves each lane of factorLanes' interleaved factor
// against y into w and writes yᵀx per lane to dst, each lane with
// ForwardSolveInto's, backSolveInto's and Dot's operations in their
// order (lanes_amd64.s).
//
//go:noescape
func solveDotLanes(l []float64, n int, y, w []float64, dst *[4]float64)

// laneCholSelfCheck factors probeMatrix in four lanes under four
// shifts, one of which fails past column 0, and solves against a
// right-hand side of inexact values. It reports whether the failure
// mask, every entry of the three good factors and each lane's yᵀx
// match factorScalar, SolveVecInto and Dot bit for bit.
func laneCholSelfCheck() bool {
	var c LaneCholesky
	a := probeMatrix()
	n := a.rows
	shifts := [4]float64{1e-9, 1e-3, -0.25, 0.5}
	tri := n * (n + 1) / 2
	tris := make([]float64, 4*tri)
	for l := range shifts {
		packLower(tris[l*tri:(l+1)*tri], a)
	}
	y := make([]float64, n)
	for i := range y {
		y[i] = float64(i%5+1) / 3
	}
	if c.Factor(tris, n, 4, &shifts) != 1<<2 {
		return false
	}
	var ya [4]float64
	c.SolveDot(y, &ya)
	x := make([]float64, n)
	for l, shift := range shifts {
		want := &Cholesky{n: n, l: NewDense(n, n)}
		if factorScalar(want.l, a, shift) != n {
			continue
		}
		for i := 0; i < n; i++ {
			for k := 0; k <= i; k++ {
				if !sameBits(c.l[(i*(i+1)/2+k)*4+l:][:1], want.l.Row(i)[k:k+1]) {
					return false
				}
			}
		}
		want.SolveVecInto(x, y)
		if d := Dot(y, x); !sameBits(ya[l:l+1], []float64{d}) {
			return false
		}
	}
	return true
}
