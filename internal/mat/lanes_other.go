//go:build !amd64

package mat

// The four-lane kernels exist on amd64 only; the scalar loops are the
// one path here.
var cholArmed, solveArmed = false, false

// choleskyLanes factors nothing here; see lanes_amd64.go.
func choleskyLanes(l, a []float64, n int, shift float64) int { return 0 }

// forwardSolveLanes solves nothing here; see lanes_amd64.go.
func forwardSolveLanes(l []float64, n int, y []float64, m int) {}
