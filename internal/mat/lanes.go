package mat

import (
	"fmt"
	"math"
)

// LaneCholesky factors up to four symmetric positive-definite systems
// of one order in lockstep and solves each against one shared
// right-hand side: the GP likelihood's factor, solve, yᵀα and
// log-determinant for up to four hyperparameter vectors per call. On
// each lane, the factor, the solve, yᵀx and the log-determinant are
// bit-identical to factorScalar, SolveVecInto, Dot and Cholesky.LogDet
// on that lane's system alone, except that a NaN result is NaN with
// whatever payload its operand order gives.
//
// The factor and the solve run in the amd64 AVX2 kernels factorLanes
// and solveDotLanes, so a caller uses a LaneCholesky only where
// LanesArmed reports them armed. A zero value is ready to use, and its
// buffers are reused across calls and orders.
type LaneCholesky struct {
	n     int
	lanes int
	l     []float64 // the factors, entry (i, k) of lane l at (i(i+1)/2 + k)·4 + l
	w     []float64 // the solves, entry i of lane l at 4i + l
}

// LanesArmed reports whether LaneCholesky's kernels run here.
func LanesArmed() bool { return laneCholArmed }

// packLower writes a's lower triangle into dst row after row, row i's
// entries 0..i at i(i+1)/2: the layout LaneCholesky.Factor reads.
func packLower(dst []float64, a *Dense) {
	for i := 0; i < a.rows; i++ {
		copy(dst[i*(i+1)/2:], a.Row(i)[:i+1])
	}
}

// Factor factors aₗ + shifts[l]·I for each lane l < lanes, where aₗ is
// the symmetric matrix of order n whose packed lower triangle (row i's
// entries 0..i at i(i+1)/2) lies at tris[l·T : (l+1)·T], T = n(n+1)/2.
// It returns the mask of lanes whose pivot failed d > 0 at some column,
// where factorScalar fails too; a failed lane's factor and solve are
// unspecified. Call it only where LanesArmed.
func (c *LaneCholesky) Factor(tris []float64, n, lanes int, shifts *[4]float64) int {
	tri := n * (n + 1) / 2
	if n < 1 || lanes < 1 || lanes > 4 || len(tris) < lanes*tri {
		panic(fmt.Sprintf("mat: LaneCholesky.Factor of %d lanes of order %d from %d values", lanes, n, len(tris)))
	}
	c.n, c.lanes = n, lanes
	c.l = grow(c.l, 4*tri)
	c.w = grow(c.w, 4*n)
	// Lanes past the last run a copy of it, so every lane computes on a
	// valid matrix.
	var off [4]int
	shift := *shifts
	for l := range off {
		src := min(l, lanes-1)
		off[l], shift[l] = src*tri, shifts[src]
	}
	return factorLanes(c.l, tris, n, &off, &shift) & (1<<lanes - 1)
}

// SolveDot solves each lane's factored system against y, of length n,
// and writes lane l's yᵀx to dst[l]: the value Dot(y, x) takes after
// SolveVecInto(x, y) on that lane's factor. Like LogDets, it follows a
// Factor run where the kernels are armed.
func (c *LaneCholesky) SolveDot(y []float64, dst *[4]float64) {
	if len(y) != c.n {
		panic(fmt.Sprintf("mat: LaneCholesky.SolveDot length %d != order %d", len(y), c.n))
	}
	solveDotLanes(c.l, c.n, y, c.w, dst)
}

// LogDets writes log|A| = 2·Σ log lᵢᵢ to dst[l] for each of the lanes
// the last Factor ran, summed as Cholesky.LogDet sums it.
func (c *LaneCholesky) LogDets(dst *[4]float64) {
	for l := 0; l < c.lanes; l++ {
		var s float64
		for i := 0; i < c.n; i++ {
			s += math.Log(c.l[(i*(i+3)/2)*4+l])
		}
		dst[l] = 2 * s
	}
}

// grow returns buf resized to n, reallocating with room for twice n
// when it is too small.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n, 2*n)
	}
	return buf[:n]
}
